package experiments

import (
	"fmt"

	"mklite/internal/apps"
	"mklite/internal/cluster"
	"mklite/internal/hw"
	"mklite/internal/kernel"
	"mklite/internal/linuxos"
	"mklite/internal/ltp"
	"mklite/internal/mckernel"
	"mklite/internal/mem"
	"mklite/internal/mos"
	"mklite/internal/par"
	"mklite/internal/stats"
	"mklite/internal/trace"
)

// TableIRow is one row of the paper's Table I.
type TableIRow struct {
	Config  string
	ZonesPS float64
	Percent float64 // relative to the Linux row
}

// TableI reproduces "Lulesh performance in DDR4 RAM with and without brk
// optimizations": Linux, mOS with heap management disabled, and mOS with
// the regular HPC heap, all pinned to DDR4 on a single node.
//
// Paper values: Linux 8,959 zones/s (100.0%); mOS heap-disabled 9,551
// (106.6%); mOS regular 10,841 (121.0%).
func TableI(cfg Config) ([]TableIRow, *stats.Table, error) {
	cfg = cfg.normalize()
	app := apps.Lulesh()

	type variant struct {
		name string
		job  cluster.Job
	}
	heapOff := mos.DefaultConfig()
	heapOff.HeapManagement = false
	variants := []variant{
		{"Linux", cluster.Job{App: app, Kernel: kernel.TypeLinux, Nodes: 1, ForceDDROnly: true}},
		{"mOS, heap management disabled", cluster.Job{App: app, Kernel: kernel.TypeMOS, Nodes: 1, ForceDDROnly: true, MOS: &heapOff}},
		{"mOS, regular heap management", cluster.Job{App: app, Kernel: kernel.TypeMOS, Nodes: 1, ForceDDROnly: true}},
	}
	sums, err := par.Map(cfg.Workers, len(variants), func(i int) (stats.Summary, error) {
		return measure(cfg, variants[i].job)
	})
	if err != nil {
		return nil, nil, err
	}
	linux := sums[0].Median
	var rows []TableIRow
	for i, v := range variants {
		rows = append(rows, TableIRow{
			Config:  v.name,
			ZonesPS: sums[i].Median,
			Percent: sums[i].Median / linux * 100,
		})
	}
	tb := stats.NewTable("configuration", "zones/s", "relative")
	for _, r := range rows {
		tb.AddRow(r.Config, fmt.Sprintf("%.0f", r.ZonesPS), fmt.Sprintf("%.1f%%", r.Percent))
	}
	return rows, tb, nil
}

// LTPResults runs the conformance suite against all three kernels and
// renders the section III-D comparison. workers is the fan-out width (0 =
// GOMAXPROCS, 1 = sequential); each kernel boots and runs the 3,328-case
// catalogue on its own worker. The equivalence tests sweep the width.
func LTPResults(workers int) ([]ltp.Report, *stats.Table, error) {
	kts := []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS}
	reports, err := par.Map(workers, len(kts), func(i int) (ltp.Report, error) {
		var k kernel.Kernel
		var err error
		switch kts[i] {
		case kernel.TypeLinux:
			k, err = linuxos.Boot(hw.KNL7250SNC4(), linuxos.DefaultConfig())
		case kernel.TypeMcKernel:
			k, _, err = mckernel.Deploy(hw.KNL7250SNC4(), mckernel.DefaultOptions())
		default:
			k, err = mos.Boot(hw.KNL7250SNC4(), mos.DefaultConfig())
		}
		if err != nil {
			return ltp.Report{}, err
		}
		return ltp.Run(k), nil
	})
	if err != nil {
		return nil, nil, err
	}
	tb := stats.NewTable("kernel", "total", "passed", "failed", "causes")
	for _, rep := range reports {
		tb.AddRow(rep.Kernel,
			fmt.Sprintf("%d", rep.Total),
			fmt.Sprintf("%d", rep.Passed),
			fmt.Sprintf("%d", rep.Failed),
			fmt.Sprintf("%v", rep.ByCause))
	}
	return reports, tb, nil
}

// BrkTraceResult reproduces section IV's Lulesh heap trace statistics
// ("7,526 queries ... 3,028 expansion requests, and 1,499 requests for
// contraction for a total of about 12,000 calls"; 87 MB peak; 22 GB
// cumulative) at this model's compressed timestep count.
type BrkTraceResult struct {
	Kernel          string
	Queries         int64
	Grows           int64
	Shrinks         int64
	Calls           int64
	PeakBytes       int64
	CumulativeBytes int64
	HeapFaults      int64
}

// BrkTrace replays the Lulesh heap trace on one node of each kernel.
func BrkTrace(cfg Config) ([]BrkTraceResult, error) {
	cfg = cfg.normalize()
	app := apps.Lulesh()
	kts := []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS}
	return par.Map(cfg.Workers, len(kts), func(i int) (BrkTraceResult, error) {
		res, err := cluster.Run(cluster.Job{App: app, Kernel: kts[i], Nodes: 1, Seed: cfg.Seed})
		if err != nil {
			return BrkTraceResult{}, err
		}
		hs := res.HeapStats
		return BrkTraceResult{
			Kernel:          res.Kernel,
			Queries:         hs.Queries,
			Grows:           hs.Grows,
			Shrinks:         hs.Shrinks,
			Calls:           hs.Calls(),
			PeakBytes:       hs.Peak,
			CumulativeBytes: hs.GrownBytes,
			HeapFaults:      hs.Faults,
		}, nil
	})
}

// ProxyOptionResult is one application's McKernel proxy-option gain.
type ProxyOptionResult struct {
	App          string
	Nodes        int
	BaselineFOM  float64
	OptimizedFOM float64
	GainPercent  float64
}

// ProxyOptions reproduces section IV's --mpol-shm-premap and
// --disable-sched-yield measurement: "we observed 9% and 2% improvements
// on 16 nodes for AMG 2013 and MiniFE, respectively."
func ProxyOptions(cfg Config) ([]ProxyOptionResult, error) {
	cfg = cfg.normalize()
	pApps := []*apps.Spec{apps.AMG2013(), apps.MiniFE()}
	return par.Map(cfg.Workers, len(pApps), func(i int) (ProxyOptionResult, error) {
		app := pApps[i]
		nodes := 16
		base, err := measure(cfg, cluster.Job{App: app, Kernel: kernel.TypeMcKernel, Nodes: nodes})
		if err != nil {
			return ProxyOptionResult{}, err
		}
		opts := mckernel.DefaultOptions()
		opts.MpolShmPremap = true
		opts.DisableSchedYield = true
		tuned, err := measure(cfg, cluster.Job{App: app, Kernel: kernel.TypeMcKernel, Nodes: nodes, McK: &opts})
		if err != nil {
			return ProxyOptionResult{}, err
		}
		return ProxyOptionResult{
			App:          app.Name,
			Nodes:        nodes,
			BaselineFOM:  base.Median,
			OptimizedFOM: tuned.Median,
			GainPercent:  (tuned.Median/base.Median - 1) * 100,
		}, nil
	})
}

// CCSQCDDDROnlyResult compares McKernel's MCDRAM-spill run against a
// DDR4-only run ("approximately 5% slowdown when running on 2,048 nodes").
type CCSQCDDDROnlyResult struct {
	Nodes           int
	SpillFOM        float64
	DDROnlyFOM      float64
	SlowdownPercent float64
}

// CCSQCDDDROnly runs the section IV comparison.
func CCSQCDDDROnly(cfg Config) (CCSQCDDDROnlyResult, error) {
	cfg = cfg.normalize()
	app := apps.CCSQCD()
	nodes := 2048
	if cfg.Quick {
		nodes = 64
	}
	spill, err := measure(cfg, cluster.Job{App: app, Kernel: kernel.TypeMcKernel, Nodes: nodes})
	if err != nil {
		return CCSQCDDDROnlyResult{}, err
	}
	ddr, err := measure(cfg, cluster.Job{App: app, Kernel: kernel.TypeMcKernel, Nodes: nodes, ForceDDROnly: true})
	if err != nil {
		return CCSQCDDDROnlyResult{}, err
	}
	return CCSQCDDDROnlyResult{
		Nodes:           nodes,
		SpillFOM:        spill.Median,
		DDROnlyFOM:      ddr.Median,
		SlowdownPercent: (1 - ddr.Median/spill.Median) * 100,
	}, nil
}

// QuadrantRow is one configuration of the clustering-mode comparison.
type QuadrantRow struct {
	Config  string
	FOM     float64
	Percent float64 // relative to Linux in SNC-4
}

// QuadrantComparison quantifies the section III-B trade-off for CCS-QCD:
// "many KNL clusters are configured to run in quadrant mode because it
// allows exploitation of the higher bandwidth of MCDRAM with less tuning
// effort, SNC-4 mode offers the highest possible hardware performance."
// In quadrant mode Linux can finally express "prefer MCDRAM, spill to
// DDR4" (numactl -p), recovering most of the LWK advantage; the LWKs keep
// SNC-4's extra hardware headroom.
func QuadrantComparison(cfg Config) ([]QuadrantRow, error) {
	cfg = cfg.normalize()
	app := apps.CCSQCD()
	nodes := 64
	type variant struct {
		name string
		job  cluster.Job
	}
	variants := []variant{
		{"Linux SNC-4 (DDR4 only)", cluster.Job{App: app, Kernel: kernel.TypeLinux, Nodes: nodes}},
		{"Linux quadrant (numactl -p MCDRAM)", cluster.Job{App: app, Kernel: kernel.TypeLinux, Nodes: nodes, Quadrant: true}},
		{"McKernel SNC-4", cluster.Job{App: app, Kernel: kernel.TypeMcKernel, Nodes: nodes}},
		{"mOS SNC-4", cluster.Job{App: app, Kernel: kernel.TypeMOS, Nodes: nodes}},
	}
	sums, err := par.Map(cfg.Workers, len(variants), func(i int) (stats.Summary, error) {
		return measure(cfg, variants[i].job)
	})
	if err != nil {
		return nil, err
	}
	base := sums[0].Median
	var rows []QuadrantRow
	for i, v := range variants {
		rows = append(rows, QuadrantRow{
			Config:  v.name,
			FOM:     sums[i].Median,
			Percent: sums[i].Median / base * 100,
		})
	}
	return rows, nil
}

// CoreSpecRow is one configuration of the core-specialisation comparison.
type CoreSpecRow struct {
	Config   string
	AppCores int
	FOM      float64
	Percent  float64 // relative to Linux with all 68 cores
}

// CoreSpecialization reproduces the section III-A observation: "Additional
// experiments have shown that mOS using 64 or 66 cores beats Linux on 68
// cores. This is often due to CPU 0 running services and introducing
// noise." Linux gets all 68 cores (no core specialisation: the rank on CPU
// 0 absorbs the system services); the comparisons reserve 4 cores.
func CoreSpecialization(cfg Config) ([]CoreSpecRow, error) {
	cfg = cfg.normalize()
	app := apps.Lulesh()
	// Single node: at scale the collective noise maximum dominates any
	// configuration; the per-core effect is isolated on one node.
	nodes := 1
	lin68 := linuxos.DefaultConfig()
	lin68.OSCores = 0 // no specialisation: daemons share the app cores
	type variant struct {
		name  string
		cores int
		job   cluster.Job
	}
	variants := []variant{
		{"Linux, 68 cores (no specialisation)", 68,
			cluster.Job{App: app, Kernel: kernel.TypeLinux, Nodes: nodes, Linux: &lin68}},
		{"Linux, 64 cores (+4 OS cores)", 64,
			cluster.Job{App: app, Kernel: kernel.TypeLinux, Nodes: nodes}},
		{"mOS, 64 cores (+4 Linux cores)", 64,
			cluster.Job{App: app, Kernel: kernel.TypeMOS, Nodes: nodes}},
	}
	sums, err := par.Map(cfg.Workers, len(variants), func(i int) (stats.Summary, error) {
		return measure(cfg, variants[i].job)
	})
	if err != nil {
		return nil, err
	}
	base := sums[0].Median
	var rows []CoreSpecRow
	for i, v := range variants {
		rows = append(rows, CoreSpecRow{
			Config:   v.name,
			AppCores: v.cores,
			FOM:      sums[i].Median,
			Percent:  sums[i].Median / base * 100,
		})
	}
	return rows, nil
}

// BrkTraceS30Result is the full-fidelity section IV replay: the exact
// 12,053-call trace (7,526 queries / 3,028 grows / 1,499 shrinks, ~87 MB
// peak, ~22 GB cumulative) executed call-for-call through each kernel's
// process syscall layer.
type BrkTraceS30Result struct {
	Kernel          string
	Calls           int64
	PeakBytes       int64
	CumulativeBytes int64
	HeapFaults      int64
	ZeroedBytes     int64
	// KernelTimeSecs is the total kernel-side time the trace cost
	// (syscall traps + fault servicing + page clearing).
	KernelTimeSecs float64
}

// replayBrkS30 boots the given kernel and replays the exact section IV trace
// call-for-call through one process wired to sink. It is the single replay
// path shared by BrkTraceS30 and the golden mechanism-count tests, so the
// table and the trace counters can never disagree about what ran.
//
// The caller owns the returned process (and must Exit it); faultWork is the
// demand-fault work the application's first touches generated.
func replayBrkS30(kt kernel.Type, sink *trace.Sink) (*kernel.Process, kernel.Kernel, mem.Work, error) {
	var k kernel.Kernel
	var err error
	switch kt {
	case kernel.TypeLinux:
		k, err = linuxos.Boot(hw.KNL7250SNC4(), linuxos.DefaultConfig())
	case kernel.TypeMcKernel:
		k, _, err = mckernel.Deploy(hw.KNL7250SNC4(), mckernel.DefaultOptions())
	default:
		k, err = mos.Boot(hw.KNL7250SNC4(), mos.DefaultConfig())
	}
	if err != nil {
		return nil, nil, mem.Work{}, err
	}
	p, err := kernel.NewProcess(k, 1, hw.GiB, sink)
	if err != nil {
		return nil, nil, mem.Work{}, err
	}
	var faultWork mem.Work
	for _, delta := range apps.LuleshBrkTraceS30() {
		if _, err := p.Sbrk(delta); err != nil {
			p.Exit()
			return nil, nil, mem.Work{}, fmt.Errorf("experiments: brk trace on %s: %w", k.Name(), err)
		}
		if delta > 0 {
			faultWork.Accumulate(p.Heap.TouchUpTo(p.Heap.Size()))
		}
	}
	return p, k, faultWork, nil
}

// BrkTraceS30 replays the exact trace on one process per kernel. The row
// values are read from the run's mechanism counters — the same counting path
// every traced run uses — rather than from a parallel set of bespoke
// accumulators.
func BrkTraceS30() ([]BrkTraceS30Result, error) {
	var out []BrkTraceS30Result
	for _, kt := range []kernel.Type{kernel.TypeLinux, kernel.TypeMcKernel, kernel.TypeMOS} {
		ctrs := trace.NewCounters()
		p, k, faultWork, err := replayBrkS30(kt, trace.NewSink(ctrs, nil))
		if err != nil {
			return nil, err
		}
		total := p.SyscallTime + k.Costs().WorkTime(faultWork)
		out = append(out, BrkTraceS30Result{
			Kernel:          k.Type().String(),
			Calls:           ctrs.Get("heap.queries") + ctrs.Get("heap.grows") + ctrs.Get("heap.shrinks"),
			PeakBytes:       ctrs.Get("heap.peak_bytes"),
			CumulativeBytes: ctrs.Get("heap.grown_bytes"),
			HeapFaults:      ctrs.Get("heap.faults"),
			ZeroedBytes:     ctrs.Get("heap.zeroed_bytes"),
			KernelTimeSecs:  total.Seconds(),
		})
		p.Exit()
	}
	return out, nil
}
