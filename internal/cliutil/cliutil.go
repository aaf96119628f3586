// Package cliutil is the harness the horus command-line tools share: Main
// runs a command's flags, profiles, telemetry and exit status, and the
// helpers parse scheme, persistence-domain, workload and scale names.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"strings"

	horus "repro"
)

// MetricsFlags bundles the -metrics / -metrics-format flags shared by the
// horus commands.
type MetricsFlags struct {
	Path   string
	Format string
}

// AddMetricsFlags registers the shared metrics flags on the default flag
// set; call before flag.Parse.
func AddMetricsFlags() *MetricsFlags {
	mf := &MetricsFlags{}
	flag.StringVar(&mf.Path, "metrics", "", "write a metrics snapshot (counters, utilization, lifecycle spans) to this file")
	flag.StringVar(&mf.Format, "metrics-format", "prom", "metrics file format: prom (Prometheus text exposition) | json")
	return mf
}

// Enabled reports whether metrics output was requested.
func (mf *MetricsFlags) Enabled() bool { return mf.Path != "" }

// Write exports the registry to the configured path in the configured
// format. No-op when metrics output is disabled.
func (mf *MetricsFlags) Write(reg *horus.MetricsRegistry) error {
	if !mf.Enabled() || reg == nil {
		return nil
	}
	return WriteFile(mf.Path, func(w io.Writer) error {
		switch strings.ToLower(mf.Format) {
		case "", "prom", "prometheus":
			return reg.WritePrometheus(w)
		case "json":
			return reg.WriteJSON(w)
		default:
			return fmt.Errorf("unknown metrics format %q (want prom|json)", mf.Format)
		}
	})
}

// AddShardsFlag registers the shared -shards flag on the default flag set;
// call before flag.Parse. The value is the drain pipeline's crypto fan-out
// width (Config.Shards): shard-owned engine clones precompute the Horus CHV
// drain's ciphertexts and MACs while the timed drain replays serially, so
// every output — results, traces, time series — is byte-identical at any
// value. Zero (the default) resolves to GOMAXPROCS at drain time; 1 forces
// the fully inline serial path.
func AddShardsFlag() *int {
	return flag.Int("shards", 0,
		"drain crypto shards: engine clones precomputing the CHV drain's ciphertexts and MACs (0 = GOMAXPROCS, 1 = serial inline; outputs are byte-identical at any value)")
}

// ParseScheme maps a user-facing name to a drain design. Accepted forms:
// non-secure/ns, base-lu/lu, base-eu/eu, horus-slm/slm, horus-dlm/dlm.
func ParseScheme(s string) (horus.Scheme, error) {
	switch strings.ToLower(s) {
	case "non-secure", "nonsecure", "ns":
		return horus.NonSecure, nil
	case "base-lu", "lu":
		return horus.BaseLU, nil
	case "base-eu", "eu":
		return horus.BaseEU, nil
	case "horus-slm", "slm":
		return horus.HorusSLM, nil
	case "horus-dlm", "dlm":
		return horus.HorusDLM, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (want non-secure|base-lu|base-eu|horus-slm|horus-dlm)", s)
	}
}

// ParseSchemes parses a comma-separated list of scheme names, each in a
// form ParseScheme accepts. The empty list gives nil.
func ParseSchemes(list string) ([]horus.Scheme, error) {
	if list == "" {
		return nil, nil
	}
	var out []horus.Scheme
	for _, name := range strings.Split(list, ",") {
		s, err := ParseScheme(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// ParseDomain maps a user-facing name to a persistence domain: adr,
// wpq/adr+wpq, bbb, epd.
func ParseDomain(s string) (horus.PersistDomain, error) {
	switch strings.ToLower(s) {
	case "adr":
		return horus.DomainADR, nil
	case "wpq", "adr+wpq":
		return horus.DomainADRWPQ, nil
	case "bbb":
		return horus.DomainBBB, nil
	case "epd", "eadr":
		return horus.DomainEPD, nil
	default:
		return 0, fmt.Errorf("unknown persistence domain %q (want adr|wpq|bbb|epd)", s)
	}
}

// MakeWorkload builds a named workload stream: kv, txlog, zipf, uniform,
// sequential, graph.
func MakeWorkload(name string, cfg horus.WorkloadConfig) (*horus.Workload, error) {
	mk, err := WorkloadFunc(name, cfg)
	if err != nil {
		return nil, err
	}
	return mk(cfg.Seed), nil
}

// WorkloadFunc validates a workload name and returns a constructor for
// that workload at cfg with the seed replaced, the shape of the crash
// harnesses' per-cell NewWorkload hooks.
func WorkloadFunc(name string, cfg horus.WorkloadConfig) (func(seed int64) *horus.Workload, error) {
	var mk func(horus.WorkloadConfig) *horus.Workload
	switch strings.ToLower(name) {
	case "kv":
		mk = func(c horus.WorkloadConfig) *horus.Workload { return horus.KVStoreWorkload(c, 4) }
	case "txlog":
		mk = func(c horus.WorkloadConfig) *horus.Workload { return horus.TxLogWorkload(c, 2, 4) }
	case "zipf":
		mk = func(c horus.WorkloadConfig) *horus.Workload { return horus.ZipfWorkload(c, 1.2) }
	case "uniform":
		mk = horus.UniformWorkload
	case "sequential":
		mk = horus.SequentialWorkload
	case "graph":
		mk = func(c horus.WorkloadConfig) *horus.Workload { return horus.GraphWorkload(c, 3) }
	default:
		return nil, fmt.Errorf("unknown workload %q (want kv|txlog|zipf|uniform|sequential|graph)", name)
	}
	return func(seed int64) *horus.Workload {
		c := cfg
		c.Seed = seed
		return mk(c)
	}, nil
}

// ParseScale maps paper|test to a configuration.
func ParseScale(s string) (horus.Config, error) {
	switch strings.ToLower(s) {
	case "paper":
		return horus.DefaultConfig(), nil
	case "test":
		return horus.TestConfig(), nil
	default:
		return horus.Config{}, fmt.Errorf("unknown scale %q (want paper|test)", s)
	}
}
