// Command crresolve resolves a whole dataset in one streaming pass: rows
// are grouped into entities by a key, resolved in parallel against a
// compiled rule set, and written back out one resolved tuple per entity.
//
// Usage:
//
//	crresolve -rules rules.cr -key name [-in data.csv] [-out resolved.csv]
//	          [-format csv|ndjson] [-output-format csv|ndjson]
//	          [-shards N] [-window N] [-sorted] [-max-rounds N] [-stats]
//	          [-follow] [-mode sat|latest-writer-wins|highest-trust|consensus]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The rules file uses the textio format restricted to schema/sigma/gamma
// sections (see CONSTRAINTS.md); crgen -format csv emits a matching
// data.csv + rules.cr pair. Input defaults to stdin and output to stdout,
// so the tool composes in pipelines:
//
//	crgen -dataset person -entities 2000 -format csv -out ./data
//	crresolve -rules ./data/rules.cr -key entity -sorted -stats \
//	          -in ./data/data.csv -out resolved.csv
//
// Pass -follow for the change-data-capture tail: NDJSON rows in arrival
// order (any interleaving of entities), one entity state line out per row
// in, flushed immediately. Entity state persists for the whole run, so each
// row re-resolves its entity incrementally instead of re-encoding it:
//
//	tail -f updates.ndjson | crresolve -rules rules.cr -key name -follow
//
// Pass -sorted when the input is clustered by key (crgen output is): the
// engine then flushes each entity as soon as its last row has passed and
// memory stays constant in the input size. Per-entity failures are
// reported in the output's error column, not as a process failure; the
// exit code is 0 when the stream itself was processed, 1 on input/output
// errors, 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"conflictres"
	"conflictres/internal/version"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("crresolve", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		rulesPath   = fs.String("rules", "", "rules file: schema/sigma/gamma in textio format (required)")
		keyCols     = fs.String("key", "", "comma-separated entity key column(s) (required)")
		inPath      = fs.String("in", "", "input file (default stdin)")
		outPath     = fs.String("out", "", "output file (default stdout)")
		format      = fs.String("format", "csv", "input format: csv | ndjson")
		outFormat   = fs.String("output-format", "", "output format: csv | ndjson (default: same as input)")
		shards      = fs.Int("shards", 0, "resolution workers sharing one queue; a key's chunks resolve in order (0 = GOMAXPROCS)")
		window      = fs.Int("window", 0, "max rows buffered while grouping (0 = default 65536)")
		sorted      = fs.Bool("sorted", false, "input is clustered by key: flush each entity eagerly")
		maxRounds   = fs.Int("max-rounds", 8, "maximum resolution rounds per entity")
		maxRows     = fs.Int("max-entity-rows", 0, "per-entity row limit (0 = default 10000, negative disables)")
		follow      = fs.Bool("follow", false, "change-data-capture tail: NDJSON rows in arrival order; each row re-resolves its entity incrementally and emits one state line")
		modeName    = fs.String("mode", "", "resolution strategy: sat (default) | latest-writer-wins | highest-trust | consensus")
		stats       = fs.Bool("stats", false, "print run statistics to stderr")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile (taken after the run) to this file")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: crresolve -rules rules.cr -key col[,col...] [flags] [-in data.csv] [-out resolved.csv]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *showVersion {
		fmt.Println(version.String("crresolve"))
		return 0
	}
	if *rulesPath == "" || *keyCols == "" || fs.NArg() != 0 {
		fs.Usage()
		return 2
	}

	strat, err := conflictres.ParseStrategy(*modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crresolve:", err)
		return 2
	}
	mode := conflictres.ResolutionMode{Strategy: strat}

	rules, err := conflictres.LoadRulesFile(*rulesPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crresolve:", err)
		return 1
	}

	in := io.Reader(os.Stdin)
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crresolve:", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	out := io.Writer(os.Stdout)
	var outFile *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crresolve:", err)
			return 1
		}
		outFile = f
		out = f
	}

	var keys []string
	for _, k := range strings.Split(*keyCols, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keys = append(keys, k)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crresolve:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "crresolve:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "crresolve:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "crresolve:", err)
			}
		}()
	}

	if *follow {
		// -follow is NDJSON-only; the -format default (csv) is overridden
		// implicitly, but an explicit -format csv is a usage error.
		formatSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "format" {
				formatSet = true
			}
		})
		if formatSet && *format != "ndjson" {
			fmt.Fprintln(os.Stderr, "crresolve: -follow requires NDJSON input (-format ndjson)")
			return 2
		}
		code := runFollow(rules, in, out, keys, mode, *stats)
		if outFile != nil {
			if err := outFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "crresolve:", err)
				return 1
			}
		}
		return code
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	st, err := conflictres.ResolveDataset(ctx, rules, in, out, conflictres.DatasetOptions{
		KeyColumns:    keys,
		InputFormat:   *format,
		OutputFormat:  *outFormat,
		Shards:        *shards,
		WindowRows:    *window,
		Sorted:        *sorted,
		MaxRounds:     *maxRounds,
		MaxEntityRows: *maxRows,
		Mode:          mode,
	})
	if *stats && st != nil {
		fmt.Fprintln(os.Stderr, "crresolve:", st)
		fmt.Fprintf(os.Stderr, "crresolve: solver time validity=%s deduce=%s suggest=%s (wall %s, %d windows)\n",
			st.Timing.Validity.Round(1e6), st.Timing.Deduce.Round(1e6),
			st.Timing.Suggest.Round(1e6), st.Wall.Round(1e6), st.Windows)
	}
	if st != nil && st.SplitEntities > 0 {
		fmt.Fprintf(os.Stderr, "crresolve: warning: %d entities had rows split across grouping windows and were resolved more than once from partial instances; raise -window or cluster the input by key (and pass -sorted)\n",
			st.SplitEntities)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crresolve:", err)
		if outFile != nil {
			outFile.Close()
		}
		return 1
	}
	// A failed close can report the deferred write-back of everything
	// buffered so far; that is an output error, not a success.
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "crresolve:", err)
			return 1
		}
	}
	return 0
}
