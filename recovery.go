package horus

import (
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// Time is a simulated duration/timestamp in picoseconds (re-exported).
type Time = sim.Time

// recoverCore runs the scheme's recovery sequence (§IV-C3) on a crashed
// core system; System.Recover, WorkloadSystem.Recover and the crash oracles
// all recover through it. A CHV scheme starts a fresh power session's clock,
// restores the vaulted metadata residue (so in-place data written before the
// crash verifies again) and then reads back and verifies the CHV. A secure
// baseline restores its vault alone; a non-secure scheme has nothing to
// verify. Recovered blocks are returned, not refilled. On an error the
// report still holds every path that completed, so its Time() is what
// recovery consumed before the failure.
func recoverCore(cs *core.System, ps PersistentState) (RecoveryReport, error) {
	var rep RecoveryReport
	switch {
	case ps.Scheme.UsesCHV():
		// The drain's bank reservations belong to the previous power session.
		cs.NVM.ResetStats()
		cs.Sec.ResetStats()
		if ps.Vault.Count > 0 {
			vres, err := recovery.RestoreMetadataVault(cs, ps.Vault, ps.Scheme.String())
			if err != nil {
				return rep, err
			}
			rep.Baseline = &vres
		}
		res, err := recovery.RecoverHorus(cs, ps, recovery.Options{})
		if err != nil {
			return rep, err
		}
		rep.Horus = &res
	case ps.Scheme.Secure():
		res, err := recovery.RecoverBaseline(cs, ps)
		if err != nil {
			return rep, err
		}
		rep.Baseline = &res
	}
	return rep, nil
}

// RecoverSerial performs only the CHV read-back with the paper's
// conservative single-stream model (Fig. 16) and returns its duration.
// The system must be crashed; the hierarchy is not refilled.
func RecoverSerial(sys *System, ps PersistentState) (Time, error) {
	res, err := recovery.RecoverHorus(sys.Core, ps, recovery.Options{})
	if err != nil {
		return 0, err
	}
	return res.RecoveryTime, nil
}

// RecoverParallel performs the CHV read-back with bank-parallel group
// chains (an extension beyond the paper's estimate) and returns its
// duration.
func RecoverParallel(sys *System, ps PersistentState) (Time, error) {
	res, err := recovery.RecoverHorus(sys.Core, ps, recovery.Options{BankParallel: true})
	if err != nil {
		return 0, err
	}
	return res.RecoveryTime, nil
}
