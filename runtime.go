package horus

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/recovery"
	"repro/internal/runsim"
	"repro/internal/workload"
)

// Block is a 64-byte memory block (re-exported).
type Block = mem.Block

// PersistDomain selects the persistence boundary of a run-time machine.
type PersistDomain = runsim.PersistDomain

// Persistence domains (§II-A): ADR backs only the memory-controller write
// queue, EPD (eADR) backs the whole cache hierarchy.
const (
	DomainADR    = runsim.DomainADR
	DomainEPD    = runsim.DomainEPD
	DomainADRWPQ = runsim.DomainADRWPQ
	DomainBBB    = runsim.DomainBBB
)

// Workload is a deterministic, replayable memory-operation stream.
type Workload = workload.Stream

// WorkloadConfig bounds a workload generator.
type WorkloadConfig = workload.Config

// RunStats aggregates a run-time machine's event counts and elapsed time.
type RunStats = runsim.Stats

// Workload generators: the application classes the paper's introduction
// motivates EPD with (§I), re-exported from the workload package.
var (
	// SequentialWorkload is a scan-shaped read-modify-write sweep
	// (analytical/in-memory analytics).
	SequentialWorkload = workload.Sequential
	// UniformWorkload is uniformly random 50/50 read/write traffic.
	UniformWorkload = workload.Uniform
	// ZipfWorkload is zipf-skewed read-mostly traffic (key-value store).
	ZipfWorkload = workload.Zipf
	// KVStoreWorkload is put/get traffic over multi-block values with
	// per-object persists.
	KVStoreWorkload = workload.KVStore
	// TxLogWorkload is a write-ahead-logging transactional shape.
	TxLogWorkload = workload.TxLog
	// GraphWorkload is pointer-chasing with rank updates.
	GraphWorkload = workload.Graph
)

// WorkloadSystem couples a run-time machine (core + cache hierarchy over
// the secure NVM) with the EPD drain and recovery machinery, closing the
// full lifecycle: run a workload, crash, drain, recover, resume.
type WorkloadSystem struct {
	Config  Config
	Scheme  Scheme
	Domain  PersistDomain
	Core    *core.System
	Machine *runsim.Machine

	drainer *core.Drainer
}

// NewWorkloadSystem builds a run-time machine for the given drain design
// and persistence domain. The cache hierarchy is the config's hierarchy;
// secure schemes route all memory traffic through the secure controller.
func NewWorkloadSystem(cfg Config, scheme Scheme, domain PersistDomain) *WorkloadSystem {
	cs, hcfg := newCoreSystem(cfg, scheme, scheme.Secure(),
		"scheme", scheme.String(), "domain", domain.String())
	machine := runsim.New(runsim.Config{
		Hierarchy: hcfg,
		Domain:    domain,
		ClockHz:   cfg.Sec.ClockHz,
	}, cs.Sec, cs.NVM)
	machine.Attach(cfg.Probe, "domain", domain.String())
	return &WorkloadSystem{
		Config:  cfg,
		Scheme:  scheme,
		Domain:  domain,
		Core:    cs,
		Machine: machine,
		drainer: core.NewDrainer(scheme, cs, 0),
	}
}

// Run executes a workload stream on the machine.
func (ws *WorkloadSystem) Run(s *Workload) error { return ws.Machine.Run(s) }

// Stats returns the machine's run-time statistics.
func (ws *WorkloadSystem) Stats() RunStats { return ws.Machine.Stats() }

// CrashAndDrain simulates an outage at the current instant: the dirty
// hierarchy state is drained under the configured scheme, then the
// volatile state is lost. It returns the drain result and the pre-crash
// image for verifying recovery: every cached line, by ascending address.
func (ws *WorkloadSystem) CrashAndDrain() (Result, []DirtyBlock, error) {
	image := ws.Machine.Image()
	blocks := ws.Machine.DirtyBlocks()
	res, err := ws.drainer.Drain(blocks)
	if err != nil {
		return Result{}, nil, err
	}
	ws.Core.Metrics.RecordSpan("crash", 0, 0)
	ws.Machine.Crash()
	if ws.Core.Sec != nil {
		ws.Core.Sec.Crash()
	}
	return res, image, nil
}

// Recover restores the machine after a crash: for Horus schemes the
// metadata vault and the CHV are verified and the recovered lines are
// written back into the machine's hierarchy as dirty state; for baselines
// the metadata vault alone suffices (data drained in place).
func (ws *WorkloadSystem) Recover(ps PersistentState) (RecoveryReport, error) {
	span := ws.Core.Metrics.StartSpan("recover", 0)
	report, err := ws.recoverFrom(ps)
	span.EndAt(int64(report.Time()))
	return report, err
}

func (ws *WorkloadSystem) recoverFrom(ps PersistentState) (RecoveryReport, error) {
	switch {
	case ps.Scheme.UsesCHV():
		report := RecoveryReport{}
		// Power restore: timing starts on a fresh clock (the drain's bank
		// reservations belong to the previous power session).
		ws.Core.NVM.ResetStats()
		ws.Core.Sec.ResetStats()
		if ps.Vault.Count > 0 {
			vres, err := recovery.RestoreMetadataVault(ws.Core, ps.Vault)
			if err != nil {
				return RecoveryReport{}, err
			}
			report.Baseline = &vres
		}
		res, err := recovery.RecoverHorus(ws.Core, ps)
		if err != nil {
			return RecoveryReport{}, err
		}
		for _, b := range res.Blocks {
			if err := ws.Machine.Write(b.Addr, b.Data); err != nil {
				return RecoveryReport{}, fmt.Errorf("horus: refill after recovery: %w", err)
			}
		}
		report.Horus = &res
		return report, nil
	case ps.Scheme.Secure():
		res, err := recovery.RecoverBaseline(ws.Core, ps)
		if err != nil {
			return RecoveryReport{}, err
		}
		return RecoveryReport{Baseline: &res}, nil
	default:
		return RecoveryReport{}, nil
	}
}
