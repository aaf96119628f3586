// Package cliutil holds the flag-parsing helpers shared by the horus
// command-line tools: scheme, persistence-domain and workload selection.
package cliutil

import (
	"flag"
	"fmt"
	"os"
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

// Registry returns a fresh registry when -metrics was given, else nil
// (instrumentation disabled, zero overhead).
func (mf *MetricsFlags) Registry() *horus.MetricsRegistry {
	if !mf.Enabled() {
		return nil
	}
	return horus.NewMetricsRegistry()
}

// Write exports the registry to the configured path in the configured
// format. No-op when metrics output is disabled.
func (mf *MetricsFlags) Write(reg *horus.MetricsRegistry) error {
	if !mf.Enabled() || reg == nil {
		return nil
	}
	f, err := os.Create(mf.Path)
	if err != nil {
		return err
	}
	switch strings.ToLower(mf.Format) {
	case "", "prom", "prometheus":
		err = reg.WritePrometheus(f)
	case "json":
		err = reg.WriteJSON(f)
	default:
		err = fmt.Errorf("unknown metrics format %q (want prom|json)", mf.Format)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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
	switch strings.ToLower(name) {
	case "kv":
		return horus.KVStoreWorkload(cfg, 4), nil
	case "txlog":
		return horus.TxLogWorkload(cfg, 2, 4), nil
	case "zipf":
		return horus.ZipfWorkload(cfg, 1.2), nil
	case "uniform":
		return horus.UniformWorkload(cfg), nil
	case "sequential":
		return horus.SequentialWorkload(cfg), nil
	case "graph":
		return horus.GraphWorkload(cfg, 3), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want kv|txlog|zipf|uniform|sequential|graph)", name)
	}
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
