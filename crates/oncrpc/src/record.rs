//! Record marking (RFC 5531 §11).
//!
//! RPC over a stream transport delimits messages with fragment headers: a
//! 32-bit word whose top bit marks the final fragment and whose low 31
//! bits give the fragment length. The simulated transport sends whole
//! messages, one fragment each, so all it needs of the format is the
//! header's size: wire-size accounting charges it per message, and byte
//! counts on the simulated links match what a real deployment would move.

/// Size in bytes of one fragment header.
pub const HEADER_LEN: usize = 4;
