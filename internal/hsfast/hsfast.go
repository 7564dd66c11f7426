// Package hsfast is the handshake fast path: the pieces that amortize
// asymmetric crypto across sessions so the control plane scales with
// session rate the way PR 1 made the data plane scale with bytes.
//
// Three mechanisms live here, all host-scoped like tls12.RecordBufPool:
//
//   - KeySharePool pre-generates X25519 keypairs on idle workers so a
//     handshake's ServerKeyExchange/ClientKeyExchange costs a channel
//     receive instead of a base-point scalar multiplication.
//   - STEK is a rotating session-ticket encryption key with a
//     one-generation grace window, shared by every hop a host
//     terminates.
//   - VerifyCache memoizes expensive verification verdicts (Ed25519
//     certificate chains, attestation endorsement chains) under an LRU
//     with TTL expiry and single-flight dedup
//     so concurrent handshakes for the same peer verify once.
//
// None of these change what is verified — only how often the same
// bytes are re-verified (RA-TLS makes the same observation for
// attestation evidence; see PAPERS.md).
package hsfast
