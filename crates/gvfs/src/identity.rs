//! Cross-domain identity mapping (paper §3.1).
//!
//! GVFS sessions authenticate with middleware-issued, short-lived
//! credentials (`AUTH_GVFS`). The **server-side proxy** is responsible for
//! authenticating those requests and mapping them onto local logical user
//! accounts — shadow `AUTH_SYS` identities the unmodified kernel NFS
//! server understands. Unknown or expired sessions are rejected with an
//! RPC auth error before anything reaches the server.

use std::collections::HashMap;

use oncrpc::msg::auth_stat;
use oncrpc::{AuthGvfs, AuthSys, OpaqueAuth, ProgramError};
use simnet::Shared;

/// The local account a session maps to.
#[derive(Debug, Clone)]
pub struct MappedAccount {
    /// Local shadow uid.
    pub uid: u32,
    /// Local shadow gid.
    pub gid: u32,
    /// Session expiry (simulation nanoseconds).
    pub expires_ns: u64,
}

/// Session registry held by a server-side proxy.
#[derive(Default)]
pub struct IdentityMapper {
    sessions: Shared<HashMap<u64, MappedAccount>>,
}

impl IdentityMapper {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a session (middleware allocates the shadow account when
    /// it establishes the file system session).
    pub fn register(&self, session_id: u64, account: MappedAccount) {
        self.sessions.lock().insert(session_id, account);
    }

    /// Remove a session (logout / expiry sweep).
    pub fn revoke(&self, session_id: u64) {
        self.sessions.lock().remove(&session_id);
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Whether no sessions are registered.
    pub fn is_empty(&self) -> bool {
        self.sessions.lock().is_empty()
    }

    /// Validate a credential and produce the upstream `AUTH_SYS`
    /// credential for the kernel server.
    ///
    /// * `AUTH_GVFS` — must name a live, unexpired session.
    /// * anything else — rejected: a GVFS server-side proxy only accepts
    ///   middleware sessions (this is its security role).
    pub fn map(&self, cred: &OpaqueAuth, now_ns: u64) -> Result<OpaqueAuth, ProgramError> {
        let gvfs: AuthGvfs = cred
            .as_gvfs()
            .map_err(|_| ProgramError::AuthError(auth_stat::TOOWEAK))?;
        let sessions = self.sessions.lock();
        let account = sessions
            .get(&gvfs.session_id)
            .ok_or(ProgramError::AuthError(auth_stat::BADCRED))?;
        if account.expires_ns <= now_ns || gvfs.expires_at <= now_ns {
            return Err(ProgramError::AuthError(auth_stat::REJECTEDCRED));
        }
        let mut sys = AuthSys::new("gvfs-proxy", account.uid, account.gid);
        sys.stamp = (gvfs.session_id & 0xFFFF_FFFF) as u32;
        Ok(OpaqueAuth::sys(&sys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cred(session: u64, expires: u64) -> OpaqueAuth {
        OpaqueAuth::gvfs(&AuthGvfs {
            session_id: session,
            grid_user: "alice".into(),
            expires_at: expires,
        })
    }

    #[test]
    fn live_session_maps_to_shadow_account() {
        let m = IdentityMapper::new();
        m.register(
            7,
            MappedAccount {
                uid: 6001,
                gid: 6000,
                expires_ns: 1_000_000,
            },
        );
        let mapped = m.map(&cred(7, u64::MAX), 10).unwrap();
        let sys = mapped.as_sys().unwrap();
        assert_eq!(sys.uid, 6001);
        assert_eq!(sys.gid, 6000);
    }

    #[test]
    fn unknown_session_is_badcred() {
        let m = IdentityMapper::new();
        assert_eq!(
            m.map(&cred(9, u64::MAX), 0),
            Err(ProgramError::AuthError(auth_stat::BADCRED))
        );
    }

    #[test]
    fn expired_session_is_rejected() {
        let m = IdentityMapper::new();
        m.register(
            1,
            MappedAccount {
                uid: 1,
                gid: 1,
                expires_ns: 100,
            },
        );
        assert_eq!(
            m.map(&cred(1, u64::MAX), 100),
            Err(ProgramError::AuthError(auth_stat::REJECTEDCRED))
        );
        // Credential-side expiry is honored too.
        m.register(
            2,
            MappedAccount {
                uid: 1,
                gid: 1,
                expires_ns: u64::MAX,
            },
        );
        assert_eq!(
            m.map(&cred(2, 50), 60),
            Err(ProgramError::AuthError(auth_stat::REJECTEDCRED))
        );
    }

    #[test]
    fn non_gvfs_flavors_are_too_weak() {
        let m = IdentityMapper::new();
        assert_eq!(
            m.map(&OpaqueAuth::none(), 0),
            Err(ProgramError::AuthError(auth_stat::TOOWEAK))
        );
        assert_eq!(
            m.map(&OpaqueAuth::sys(&AuthSys::new("h", 0, 0)), 0),
            Err(ProgramError::AuthError(auth_stat::TOOWEAK))
        );
    }

    #[test]
    fn revoke_kills_session() {
        let m = IdentityMapper::new();
        m.register(
            3,
            MappedAccount {
                uid: 1,
                gid: 1,
                expires_ns: u64::MAX,
            },
        );
        assert!(m.map(&cred(3, u64::MAX), 0).is_ok());
        m.revoke(3);
        assert!(m.map(&cred(3, u64::MAX), 0).is_err());
    }
}
