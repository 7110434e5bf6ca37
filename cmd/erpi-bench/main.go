// Command erpi-bench regenerates every table and figure of the ER-π
// paper's evaluation (§6):
//
//	erpi-bench -all           # everything (several minutes)
//	erpi-bench -table1        # Table 1: bug benchmarks
//	erpi-bench -table2        # Table 2: misconception detection
//	erpi-bench -fig8          # Figure 8a+8b: interleavings & time per bug/mode
//	erpi-bench -fig9          # Figure 9: per-algorithm pruning contribution
//	erpi-bench -fig10         # Figure 10: succeed-or-crash micro-benchmark
//	erpi-bench -pool          # pool throughput sweep -> BENCH_pool.json
//	erpi-bench -fuzz          # generation-batched fuzz sweep -> BENCH_fuzz.json
//	erpi-bench -subsume       # state-subsumption sweep -> BENCH_subsume.json
//	erpi-bench -hash          # incremental-hashing micro+parity -> BENCH_hash.json
//	erpi-bench -live          # live-replay session sweep -> BENCH_live.json
//	erpi-bench -dist          # distributed-coordinator sweep -> BENCH_dist.json
//	erpi-bench -obs           # telemetry/federation overhead -> BENCH_obs.json
//
// Any mode accepts -cpuprofile/-memprofile to capture pprof profiles of
// the whole invocation.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/er-pi/erpi/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		all     = flag.Bool("all", false, "regenerate every table and figure")
		table1  = flag.Bool("table1", false, "Table 1: bug benchmarks")
		table2  = flag.Bool("table2", false, "Table 2: misconception detection")
		fig8    = flag.Bool("fig8", false, "Figure 8a/8b: reproduction cost per bug and mode")
		fig9    = flag.Bool("fig9", false, "Figure 9: pruning ablation")
		fig10   = flag.Bool("fig10", false, "Figure 10: succeed-or-crash")
		fuzzx   = flag.Bool("fuzzext", false, "extension: fuzzing vs Rand on the Rand-hard bugs")
		cap     = flag.Int("cap", bench.Cap, "exploration cap (Figure 8)")
		seed    = flag.Int64("seed", 1, "seed for the Rand baseline and sampling")
		runs    = flag.Int("runs", 5, "runs per mode (Figure 10)")
		budget  = flag.Int("budget", bench.DefaultFig10Budget, "store fact budget (Figure 10)")
		sample  = flag.Int("sample", 20000, "sampling size for Figure 9 estimates")
		pool    = flag.Bool("pool", false, "pool throughput sweep over worker counts")
		poolN   = flag.Int("pool-slice", bench.DefaultPoolSlice, "interleavings per pool run")
		poolOut = flag.String("pool-out", "BENCH_pool.json", "machine-readable pool report path")
		fuzz    = flag.Bool("fuzz", false, "generation-batched fuzz sweep over worker counts")
		fuzzN   = flag.Int("fuzz-slice", bench.DefaultFuzzSlice, "interleavings per fuzz run")
		fuzzOut = flag.String("fuzz-out", "BENCH_fuzz.json", "machine-readable fuzz report path")
		subsume = flag.Bool("subsume", false, "state-subsumption sweep over table budgets")
		subN    = flag.Int("subsume-slice", bench.DefaultSubsumeSlice, "interleavings per subsumption run")
		subOut  = flag.String("subsume-out", "BENCH_subsume.json", "machine-readable subsumption report path")
		hash    = flag.Bool("hash", false, "incremental snapshot-hashing micro benchmark and parity pins")
		hashN   = flag.Int("hash-slice", bench.DefaultHashSlice, "interleavings per hash-parity engine run")
		hashOut = flag.String("hash-out", "BENCH_hash.json", "machine-readable hash report path")
		live    = flag.Bool("live", false, "live-replay sweep over concurrent session counts")
		liveN   = flag.Int("live-slice", bench.DefaultLiveSlice, "interleavings per live run")
		liveOut = flag.String("live-out", "BENCH_live.json", "machine-readable live report path")
		dist    = flag.Bool("dist", false, "distributed-coordinator sweep over worker counts")
		distN   = flag.Int("dist-slice", bench.DefaultDistSlice, "interleavings per distributed run")
		distOut = flag.String("dist-out", "BENCH_dist.json", "machine-readable distributed report path")
		obs     = flag.Bool("obs", false, "telemetry and federation overhead measurement")
		obsN    = flag.Int("obs-slice", bench.DefaultObsSlice, "interleavings per observability run")
		obsOut  = flag.String("obs-out", "BENCH_obs.json", "machine-readable observability report path")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this path")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this path")
	)
	flag.Parse()
	if !*all && !*table1 && !*table2 && !*fig8 && !*fig9 && !*fig10 && !*fuzzx && !*pool && !*fuzz && !*subsume && !*hash && !*live && !*dist && !*obs {
		flag.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "erpi-bench:", err)
		return 1
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "erpi-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "erpi-bench:", err)
			}
		}()
	}
	if *all || *table1 {
		rows, err := bench.RunTable1()
		if err != nil {
			return fail(err)
		}
		if err := bench.WriteTable1(os.Stdout, rows); err != nil {
			return fail(err)
		}
		fmt.Println()
	}
	if *all || *table2 {
		cells, err := bench.RunTable2()
		if err != nil {
			return fail(err)
		}
		if err := bench.WriteTable2(os.Stdout, cells); err != nil {
			return fail(err)
		}
		fmt.Println()
	}
	if *all || *fig8 {
		res, err := bench.RunFig8(*cap, *seed, flag.Args()...)
		if err != nil {
			return fail(err)
		}
		fmt.Println(res.Render())
	}
	if *all || *fig9 {
		rows, err := bench.RunFig9(*sample, *seed)
		if err != nil {
			return fail(err)
		}
		if err := bench.WriteFig9(os.Stdout, rows); err != nil {
			return fail(err)
		}
		fmt.Println()
	}
	if *all || *fig10 {
		rows, err := bench.RunFig10(*runs, *budget)
		if err != nil {
			return fail(err)
		}
		if err := bench.WriteFig10(os.Stdout, rows); err != nil {
			return fail(err)
		}
		fmt.Println()
	}
	if *all || *pool {
		report, err := bench.RunPool(*poolN, nil)
		if err != nil {
			return fail(err)
		}
		if err := report.Render(os.Stdout); err != nil {
			return fail(err)
		}
		if err := report.WritePoolJSON(*poolOut); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s\n\n", *poolOut)
	}
	if *all || *fuzz {
		report, err := bench.RunFuzz(*fuzzN, nil)
		if err != nil {
			return fail(err)
		}
		if err := report.Render(os.Stdout); err != nil {
			return fail(err)
		}
		if err := report.WriteFuzzJSON(*fuzzOut); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s\n\n", *fuzzOut)
		if !report.TrajectoryMatch {
			return fail(fmt.Errorf("fuzz corpus trajectory diverged across worker counts"))
		}
	}
	if *all || *subsume {
		report, err := bench.RunSubsume(*subN, nil)
		if err != nil {
			return fail(err)
		}
		if err := report.Render(os.Stdout); err != nil {
			return fail(err)
		}
		if err := report.WriteSubsumeJSON(*subOut); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s\n\n", *subOut)
	}
	if *all || *hash {
		report, err := bench.RunHash(*hashN)
		if err != nil {
			return fail(err)
		}
		if err := report.Render(os.Stdout); err != nil {
			return fail(err)
		}
		if err := report.WriteHashJSON(*hashOut); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s\n\n", *hashOut)
	}
	if *all || *live {
		report, err := bench.RunLive(*liveN, nil)
		if err != nil {
			return fail(err)
		}
		if err := report.Render(os.Stdout); err != nil {
			return fail(err)
		}
		if err := report.WriteLiveJSON(*liveOut); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s\n\n", *liveOut)
	}
	if *all || *dist {
		report, err := bench.RunDist(*distN, nil)
		if err != nil {
			return fail(err)
		}
		if err := report.Render(os.Stdout); err != nil {
			return fail(err)
		}
		if err := report.WriteDistJSON(*distOut); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s\n\n", *distOut)
	}
	if *all || *obs {
		report, err := bench.RunObs(*obsN)
		if err != nil {
			return fail(err)
		}
		if err := report.Render(os.Stdout); err != nil {
			return fail(err)
		}
		if err := report.WriteObsJSON(*obsOut); err != nil {
			return fail(err)
		}
		fmt.Printf("wrote %s\n\n", *obsOut)
	}
	if *all || *fuzzx {
		rows, err := bench.RunFuzzExt(3, *cap)
		if err != nil {
			return fail(err)
		}
		if err := bench.WriteFuzzExt(os.Stdout, rows); err != nil {
			return fail(err)
		}
		fmt.Println()
	}
	return 0
}
