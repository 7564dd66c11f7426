// Command mbtls-bench regenerates every table and figure of the
// paper's evaluation (§5):
//
//	mbtls-bench table1            Table 1: threats and defenses (live attacks)
//	mbtls-bench table2            Table 2: handshake viability across 241 networks
//	mbtls-bench fig5              Figure 5: handshake CPU microbenchmarks
//	mbtls-bench fig6              Figure 6: mbTLS vs TLS session latency
//	mbtls-bench fig7              Figure 7: SGX (non-)overhead on throughput
//	mbtls-bench legacy            §5.1: legacy interoperability breakdown
//	mbtls-bench design            §2: the design-space matrix, with live probes
//	mbtls-bench sessions          chain sweep: session-host throughput/latency vs concurrency
//	mbtls-bench handshake         chain sweep: full vs chain-ticket-resumed, attest vs proxysig
//	mbtls-bench all               everything above
//
// The sessions and fig7 sweeps take -transport {netsim|tcp} to run the
// identical topology over in-memory pipes or loopback kernel sockets.
//
// Absolute numbers depend on this machine; the shapes (who wins, by
// roughly what factor) are what reproduce the paper. See EXPERIMENTS.md.
// Regression numbers — environment-stamped, repeated, comparable run to
// run — come from benchmark/ instead (`go run -C benchmark .`).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	trials := flag.Int("trials", 0, "trials per configuration (0 = per-experiment default)")
	scale := flag.Float64("scale", 0.1, "latency scale for fig6 (1.0 = real inter-DC latencies)")
	window := flag.Duration("window", 250*time.Millisecond, "measurement window per fig7 cell")
	boundary := flag.Duration("boundary-cost", time.Microsecond, "simulated SGX transition cost for fig7")
	perWorker := flag.Int("sessions-per-worker", 0, "sessions each worker runs per concurrency level (0 = default)")
	quick := flag.Bool("quick", false, "for handshake/sessions/fig7: shrink to a smoke-test run (CI gate)")
	transportName := flag.String("transport", "", "for sessions/fig7: byte-moving backend, netsim (default) or tcp")
	soak := flag.Bool("soak", false, "for sessions: also run the idle-session soak")
	soakSessions := flag.Int("soak-sessions", 0, "for sessions -soak: live idle sessions to hold (0 = 20000)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mbtls-bench [flags] {design|table1|table2|fig5|fig6|fig7|legacy|sessions|handshake|all}\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Accept flags after the subcommand too (mbtls-bench fig7 -quick).
	if flag.NArg() > 1 {
		if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil {
			os.Exit(2)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		exitOn(err)
		exitOn(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			exitOn(err)
			defer f.Close()
			runtime.GC()
			exitOn(pprof.WriteHeapProfile(f))
		}()
	}

	run := func(name string) {
		start := time.Now()
		switch name {
		case "table1":
			fmt.Print(experiments.FormatTable1(experiments.RunTable1()))
		case "table2":
			rows, err := experiments.RunTable2(experiments.Table2Options{})
			exitOn(err)
			fmt.Print(experiments.FormatTable2(rows))
		case "fig5":
			rows, err := experiments.RunFig5(experiments.Fig5Options{Trials: *trials})
			exitOn(err)
			fmt.Print(experiments.FormatFig5(rows))
		case "fig6":
			rows, err := experiments.RunFig6(experiments.Fig6Options{Trials: *trials, Scale: *scale})
			exitOn(err)
			fmt.Print(experiments.FormatFig6(rows))
		case "fig7":
			fig7Window := *window
			if *quick {
				// Let Quick pick its own short window unless one was
				// given explicitly.
				fig7Window = 0
				flag.Visit(func(f *flag.Flag) {
					if f.Name == "window" {
						fig7Window = *window
					}
				})
			}
			cells, err := experiments.RunFig7(experiments.Fig7Options{Window: fig7Window, BoundaryCost: *boundary, Transport: *transportName, Quick: *quick})
			exitOn(err)
			fmt.Print(experiments.FormatFig7(cells))
		case "legacy":
			r, err := experiments.RunLegacy(experiments.LegacyOptions{})
			exitOn(err)
			fmt.Print(experiments.FormatLegacy(r))
		case "design":
			fmt.Print(experiments.FormatDesignSpace(experiments.DesignSpace()))
		case "sessions":
			rep, err := experiments.RunSessions(experiments.ChainOptions{
				SessionsPerWorker: *perWorker,
				Transport:         *transportName,
				Quick:             *quick,
			})
			exitOn(err)
			if *soak {
				rep.Soak, err = experiments.RunSoak(experiments.SoakOptions{Sessions: *soakSessions})
				exitOn(err)
			}
			fmt.Print(experiments.FormatChain(rep))
		case "handshake":
			rep, err := experiments.RunHandshake(experiments.ChainOptions{
				SessionsPerWorker: *perWorker,
				Quick:             *quick,
			})
			exitOn(err)
			fmt.Print(experiments.FormatChain(rep))
		default:
			fmt.Fprintf(os.Stderr, "mbtls-bench: unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if cmd == "all" {
		for _, name := range []string{"design", "table1", "table2", "fig5", "fig6", "fig7", "legacy", "sessions", "handshake"} {
			run(name)
		}
		return
	}
	run(cmd)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbtls-bench:", err)
		os.Exit(1)
	}
}
