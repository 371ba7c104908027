// Command darknetreport simulates a quarantined infected host (CodeRedII,
// Slammer, or Blaster) probing the IMS darknet geometry and reports what
// each sensor block observed — the per-block view behind Figures 1–4.
//
// Usage:
//
//	darknetreport -worm codered2 -own 192.168.0.100 -probes 7567361
//	darknetreport -worm slammer -variant 1 -probes 26000000
//	darknetreport -worm blaster -own 141.212.10.5 -tick 140000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/obsflags"
	"repro/internal/core"
	"repro/internal/ipv4"
	"repro/internal/sensor"
	"repro/internal/textplot"
	"repro/internal/worm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "darknetreport:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("darknetreport", flag.ContinueOnError)
	var (
		wormName = fs.String("worm", "codered2", "codered2|slammer|blaster|uniform")
		own      = fs.String("own", "18.31.0.5", "infected host's own address")
		probes   = fs.Uint64("probes", 7567093, "probes to simulate")
		variant  = fs.Int("variant", 1, "Slammer sqlsort.dll variant (0-2)")
		tick     = fs.Uint("tick", 140000, "Blaster GetTickCount() seed (ms)")
		seed     = fs.Uint64("seed", 1, "PRNG seed (codered2/slammer/uniform)")
		jsonOut  = fs.String("json", "", "write the observation snapshot as JSON to this file ('-' for stdout)")
	)
	obsFlags := obsflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ownAddr, err := ipv4.ParseAddr(*own)
	if err != nil {
		return err
	}
	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer sess.Close()

	var gen worm.TargetGenerator
	switch *wormName {
	case "codered2":
		gen = worm.NewCodeRedII(ownAddr, uint32(*seed))
	case "slammer":
		if *variant < 0 || *variant > 2 {
			return fmt.Errorf("variant %d out of range [0,2]", *variant)
		}
		gen = worm.NewSlammer(*variant, uint32(*seed))
	case "blaster":
		gen = worm.NewBlaster(ownAddr, uint32(*tick))
	case "witty":
		gen = worm.NewWitty(uint32(*seed))
	case "uniform":
		gen = worm.NewUniform(*seed)
	default:
		return fmt.Errorf("unknown worm %q", *wormName)
	}

	fleet := sensor.MustNewFleet(sensor.DefaultIMSBlocks())
	probesCtr := sess.Registry.Counter("darknet_probes_total", "worm", *wormName)
	monitoredCtr := sess.Registry.Counter("darknet_probes_monitored_total", "worm", *wormName)
	privateCtr := sess.Registry.Counter("darknet_probes_private_total", "worm", *wormName)
	every := *probes / 10
	if every == 0 {
		every = 1
	}
	var monitored, private uint64
	for i := uint64(0); i < *probes; i++ {
		dst := gen.Next()
		probesCtr.Inc()
		if (i+1)%every == 0 {
			sess.Progressf("probes %d/%d monitored=%d", i+1, *probes, monitored)
		}
		if dst.IsPrivate() {
			private++
			privateCtr.Inc()
			continue
		}
		if fleet.Observe(ownAddr, dst) {
			monitored++
			monitoredCtr.Inc()
		}
	}

	fmt.Printf("worm=%s own=%s probes=%d monitored=%d (%.4f%%) private=%d (%.1f%%)\n",
		*wormName, ownAddr, *probes, monitored,
		100*float64(monitored)/float64(*probes), private,
		100*float64(private)/float64(*probes))

	var labels []string
	var values []float64
	var concat []uint64
	for _, s := range fleet.Sensors() {
		labels = append(labels, s.Block().String())
		values = append(values, float64(s.TotalAttempts()))
		sess.Registry.Gauge("darknet_block_attempts", "block", s.Block().String()).
			Set(float64(s.TotalAttempts()))
		for _, st := range s.PerSlash24() {
			concat = append(concat, st.Attempts)
		}
	}
	fmt.Println(textplot.Bars("attempts per sensor block:", labels, values, 48))

	rep := core.Analyze(concat)
	fmt.Printf("per-/24 non-uniformity: chi2=%.0f (df=%d) Gini=%.3f spread=%.1f orders hotspots=%d uniform=%v\n",
		rep.ChiSquare, rep.DF, rep.Gini, rep.SpreadOrders, len(rep.Hotspots), rep.IsUniform())

	if *jsonOut != "" {
		if err := writeJSONSnapshot(fleet.Snapshot(), *jsonOut); err != nil {
			return err
		}
	}
	return sess.Close()
}

func writeJSONSnapshot(snap sensor.Snapshot, path string) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}
