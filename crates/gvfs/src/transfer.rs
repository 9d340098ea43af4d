//! Knobs of the overlapped WAN paths. The bounded-window fan-out they
//! tune is [`simnet::run_windowed`], shared with the kernel NFS client.

/// Knobs for the three overlapped WAN paths, carried by
/// [`crate::ProxyConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferTuning {
    /// File-channel chunk size in bytes. A whole-file transfer is split
    /// into pieces of this size so compression, WAN transfer and
    /// decompression of successive chunks overlap. `0` means "do not
    /// split": the file travels as a single chunk.
    pub chunk_bytes: u32,
    /// Max in-flight chunk RPCs per file-channel transfer. `1` reproduces
    /// the old serial compress→ship→uncompress pipeline.
    pub channel_window: usize,
    /// Max in-flight UNSTABLE WRITEs during `Proxy::flush` write-back.
    /// `1` reproduces the old one-RPC-at-a-time flush.
    pub flush_window: usize,
    /// Blocks to prefetch ahead of a sequential miss stream (per file).
    /// `0` disables read-ahead.
    pub read_ahead: usize,
    /// Bounded retry rounds `Proxy::flush` runs to drain write-backs
    /// that failed upstream (WAN outage, server restart mid-flush). `0`
    /// disables retrying: failures park on the retry queue until the
    /// next flush signal. Rounds are spaced by a fixed backoff (500 ms,
    /// doubling, capped at 8x).
    pub flush_retry_rounds: u32,
}

impl Default for TransferTuning {
    fn default() -> Self {
        TransferTuning {
            chunk_bytes: 1 << 20,
            channel_window: 4,
            flush_window: 8,
            read_ahead: 8,
            flush_retry_rounds: 4,
        }
    }
}
