//! RPC authentication flavors.
//!
//! Besides the standard `AUTH_NONE` and `AUTH_SYS` (RFC 5531 appendix A),
//! this module defines `AUTH_GVFS`: the middleware-issued, short-lived
//! logical-user-account credential the paper's Grid virtual file system
//! uses for cross-domain authentication. A server-side GVFS proxy maps an
//! `AUTH_GVFS` credential onto a local `AUTH_SYS` identity before
//! forwarding to the kernel NFS server (see `gvfs::identity`).

use xdr::{Decode, Decoder, Encode, Encoder, Error, Result};

/// Authentication flavor discriminants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuthFlavor {
    /// No authentication.
    None,
    /// Classic Unix credentials (uid/gid/groups).
    Sys,
    /// Short-hand verifier (unused here, parsed for completeness).
    Short,
    /// GVFS middleware-issued short-lived identity (private flavor range).
    Gvfs,
    /// Any flavor this implementation does not understand.
    Unknown(u32),
}

impl AuthFlavor {
    /// Wire discriminant.
    pub fn as_u32(self) -> u32 {
        match self {
            AuthFlavor::None => 0,
            AuthFlavor::Sys => 1,
            AuthFlavor::Short => 2,
            AuthFlavor::Gvfs => 400_001,
            AuthFlavor::Unknown(v) => v,
        }
    }

    /// Parse a wire discriminant.
    pub fn from_u32(v: u32) -> Self {
        match v {
            0 => AuthFlavor::None,
            1 => AuthFlavor::Sys,
            2 => AuthFlavor::Short,
            400_001 => AuthFlavor::Gvfs,
            other => AuthFlavor::Unknown(other),
        }
    }
}

/// An authentication field: flavor plus opaque body (RFC 5531 §8.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpaqueAuth {
    /// Which flavor the body encodes.
    pub flavor: AuthFlavor,
    /// Flavor-specific bytes (itself XDR-encoded for SYS and GVFS).
    pub body: Vec<u8>,
}

impl OpaqueAuth {
    /// The `AUTH_NONE` credential.
    pub fn none() -> Self {
        OpaqueAuth {
            flavor: AuthFlavor::None,
            body: Vec::new(),
        }
    }

    /// Build an `AUTH_SYS` credential.
    pub fn sys(auth: &AuthSys) -> Self {
        OpaqueAuth {
            flavor: AuthFlavor::Sys,
            body: xdr::to_bytes(auth),
        }
    }

    /// Build an `AUTH_GVFS` credential.
    pub fn gvfs(auth: &AuthGvfs) -> Self {
        OpaqueAuth {
            flavor: AuthFlavor::Gvfs,
            body: xdr::to_bytes(auth),
        }
    }

    /// Parse the body as `AUTH_SYS`.
    pub fn as_sys(&self) -> Result<AuthSys> {
        if self.flavor != AuthFlavor::Sys {
            return Err(Error::InvalidDiscriminant(self.flavor.as_u32()));
        }
        xdr::from_bytes(&self.body)
    }

    /// Parse the body as `AUTH_GVFS`.
    pub fn as_gvfs(&self) -> Result<AuthGvfs> {
        if self.flavor != AuthFlavor::Gvfs {
            return Err(Error::InvalidDiscriminant(self.flavor.as_u32()));
        }
        xdr::from_bytes(&self.body)
    }
}

impl Encode for OpaqueAuth {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.flavor.as_u32());
        enc.put_opaque_var(&self.body);
    }
}

impl Decode<'_> for OpaqueAuth {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let flavor = AuthFlavor::from_u32(dec.get_u32()?);
        let body = dec.get_opaque_var()?;
        Ok(OpaqueAuth { flavor, body })
    }
}

/// `AUTH_SYS` credential body (RFC 5531 appendix A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthSys {
    /// Arbitrary caller-chosen stamp.
    pub stamp: u32,
    /// Caller's machine name.
    pub machinename: String,
    /// Effective user id.
    pub uid: u32,
    /// Effective group id.
    pub gid: u32,
    /// Supplementary groups (max 16 on the wire).
    pub gids: Vec<u32>,
}

impl AuthSys {
    /// Convenience constructor for a single-identity credential.
    pub fn new(machinename: &str, uid: u32, gid: u32) -> Self {
        AuthSys {
            stamp: 0,
            machinename: machinename.to_string(),
            uid,
            gid,
            gids: Vec::new(),
        }
    }
}

impl Encode for AuthSys {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.stamp);
        enc.put_string(&self.machinename);
        enc.put_u32(self.uid);
        enc.put_u32(self.gid);
        enc.put_array(&self.gids, |e, g| e.put_u32(*g));
    }
}

impl Decode<'_> for AuthSys {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(AuthSys {
            stamp: dec.get_u32()?,
            machinename: dec.get_string()?,
            uid: dec.get_u32()?,
            gid: dec.get_u32()?,
            gids: dec.get_array(|d| d.get_u32())?,
        })
    }
}

/// The GVFS middleware credential: a short-lived identity allocated by the
/// Grid middleware on behalf of a user for the duration of a file system
/// session (paper §3.1; see also Adabala et al., IPDPS 2004).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthGvfs {
    /// Middleware-assigned session identifier.
    pub session_id: u64,
    /// The Grid user this shadow identity stands for.
    pub grid_user: String,
    /// Expiry, seconds since session epoch; proxies reject expired creds.
    pub expires_at: u64,
}

xdr::record! { AuthGvfs { session_id, grid_user, expires_at } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flavor_discriminants_round_trip() {
        for f in [
            AuthFlavor::None,
            AuthFlavor::Sys,
            AuthFlavor::Short,
            AuthFlavor::Gvfs,
            AuthFlavor::Unknown(77),
        ] {
            assert_eq!(AuthFlavor::from_u32(f.as_u32()), f);
        }
    }

    #[test]
    fn auth_sys_round_trips() {
        let a = AuthSys {
            stamp: 42,
            machinename: "compute1.acis.ufl.edu".into(),
            uid: 501,
            gid: 100,
            gids: vec![100, 10],
        };
        let o = OpaqueAuth::sys(&a);
        assert_eq!(o.flavor, AuthFlavor::Sys);
        assert_eq!(o.as_sys().unwrap(), a);
    }

    #[test]
    fn auth_gvfs_round_trips_through_opaque() {
        let g = AuthGvfs {
            session_id: 7,
            grid_user: "vmuser".into(),
            expires_at: 3600,
        };
        let o = OpaqueAuth::gvfs(&g);
        let bytes = xdr::to_bytes(&o);
        let back: OpaqueAuth = xdr::from_bytes(&bytes).unwrap();
        assert_eq!(back.as_gvfs().unwrap(), g);
    }

    #[test]
    fn wrong_flavor_parse_is_an_error() {
        let o = OpaqueAuth::none();
        assert!(o.as_sys().is_err());
        assert!(o.as_gvfs().is_err());
    }
}
