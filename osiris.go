package horus

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/osiris"
)

// OsirisResult reports an Osiris-style vault-free metadata recovery.
type OsirisResult = osiris.Result

// OsirisError is the typed failure of an Osiris recovery.
type OsirisError = osiris.Error

// RecoverWithOsiris reconstructs the system's encryption counters and
// integrity tree after a crash using the Osiris stop-loss mechanism
// (§II-C), instead of the Anubis-style metadata vault. The system must
// have been configured with Config.Sec.OsirisStopLoss > 0 so that run-time
// writes persisted counters within the stop-loss window and co-located
// MACs with data.
//
// Trade-off versus the vault (and versus Horus): no vault flush is needed
// during the drain, but recovery scans all of memory, tries up to
// stop-loss MAC candidates per block, and rebuilds the whole tree — the
// recovery-time cost the related-work section discusses.
func (s *System) RecoverWithOsiris() (OsirisResult, error) {
	return recoverOsiris(s.Core, s.Config, s.Scheme)
}

// RecoverWithOsiris is the workload-system variant.
func (ws *WorkloadSystem) RecoverWithOsiris() (OsirisResult, error) {
	return recoverOsiris(ws.Core, ws.Config, ws.Scheme)
}

// recoverOsiris runs the Osiris reconstruction with the configured stop-loss.
func recoverOsiris(cs *core.System, cfg Config, scheme Scheme) (OsirisResult, error) {
	n := cfg.Sec.OsirisStopLoss
	if n <= 0 {
		return OsirisResult{}, fmt.Errorf("horus: RecoverWithOsiris requires Config.Sec.OsirisStopLoss > 0")
	}
	return osiris.Recover(cs, n, scheme.String())
}
