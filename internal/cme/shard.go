package cme

// Shard-owned engine contexts.
//
// The simulator's timed state machine stays on one goroutine, but the drain
// pipeline fans the *functional* crypto — OTP generation and MAC hashing,
// whose outputs are position-addressed and order-free — out over several
// engine contexts. The contract is ownership, not locking: every goroutine
// computes through its own clone, and the clones share only the immutable
// key material. cmd/ drains build one clone per shard (core.Drainer), and
// the -race hammer test in shard_test.go enforces the contract.

// Clone returns a shard-owned copy of the engine: same AES and MAC keys,
// fresh scratch buffers. The underlying cipher.Block is stateless after key
// expansion, so clones may encrypt concurrently; the per-engine OTP scratch
// (otpPad/otpPT) is what makes a single Engine single-goroutine, and each
// clone carries its own.
func (e *Engine) Clone() *Engine {
	return &Engine{block: e.block, macKey: e.macKey}
}
