// Command activesim runs the repo's narrated ActiveRMT scenarios on the
// simulator's virtual clock: switch, controller, clients and servers, each
// run a deterministic timeline per -seed.
//
// Every scenario is one row of the table below — its name, summary, the
// flags it accepts, its run function and its fixed-seed smoke invocations.
// Dispatch, -list, the usage text and flag-misuse rejection (exit 2) all
// read that table; TestSmoke runs every row's smoke invocations.
//
//	activesim -list                                     # the scenario table
//	activesim -scenario cache -chaos flaky-link -seed 3 # cache under a fault schedule
//	activesim -scenario cache -topology leafspine:3x2   # the coherent cache on a fabric
//	activesim -soak 5m -seed 7 -soak-csv soak.csv       # the long-soak invariant harness
//	activesim -scenario paper -quick fig5a fig8b        # the paper's figures, CSV into results/
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"activermt/internal/chaos"
	"activermt/internal/netsim"
)

// options is what the command line resolves to; every run function reads
// the flags its row accepts and prints to out.
type options struct {
	list        bool
	scenario    string
	seed        int64
	chaos       string
	adversary   bool
	telemetry   string
	topology    string
	switches    int
	soak        time.Duration
	soakCSV     string
	soakSecapps bool
	quick       bool
	outDir      string
	args        []string // positional arguments, for the row that takes them

	out io.Writer
}

func (o *options) printf(format string, args ...any) { fmt.Fprintf(o.out, format, args...) }

// timeline returns a printer that stamps each line with eng's virtual time.
func (o *options) timeline(eng *netsim.Engine) func(format string, args ...any) {
	return func(format string, args ...any) {
		o.printf("[%8.3fs] "+format+"\n", append([]any{eng.Now().Seconds()}, args...)...)
	}
}

// scenario is one row of the command table.
type scenario struct {
	name    string
	summary string
	// by lists the flags that select this row instead of -scenario when set
	// to a non-default value (-soak overrides -scenario); of, when set,
	// restricts that to one -scenario value.
	by, of string
	flags  string // space-separated flags the row accepts besides -scenario and by
	args   string // what the row's positional arguments are; "" when it takes none
	run    func(o *options) error
	smoke  []string // fixed-seed invocations, run by TestSmoke
}

var table = []scenario{
	{name: "cache", flags: "seed chaos adversary telemetry", run: runCache,
		summary: "one cache client over Zipf traffic; -chaos, -adversary and -telemetry ride along",
		smoke: []string{"-scenario cache -chaos flaky-link -seed 3", "-scenario cache -chaos flapping-port -seed 3",
			"-scenario cache -chaos controller-outage -seed 3", "-scenario cache -chaos corrupted-memory -seed 3",
			"-scenario cache -chaos link-outage -seed 3", "-scenario cache -chaos link-flap -seed 3",
			"-scenario cache -chaos partition -seed 3",
			"-scenario cache -adversary -seed 3",
			"-scenario cache -chaos controller-outage -telemetry 127.0.0.1:0 -seed 3",
			"-scenario cache -adversary -telemetry 127.0.0.1:0 -seed 3"}},
	{name: "fabric", by: "topology switches", of: "cache", flags: "seed", run: runFabricCache,
		summary: "the coherent replicated cache across a leaf-spine fabric (leafspine:LxS, or N switches as (N-1)x1)",
		smoke:   []string{"-scenario cache -topology leafspine:3x2 -seed 3", "-scenario cache -switches 4 -seed 3"}},
	{name: "lb", flags: "seed", run: runLB,
		summary: "Cheetah load balancing across 4 servers", smoke: []string{"-scenario lb -seed 3"}},
	{name: "defrag", flags: "seed", run: runDefragDemo,
		summary: "tenant churn leaves holes until a pass is asked for, then allocator-driven live migration",
		smoke:   []string{"-scenario defrag -seed 3"}},
	{name: "synflood", flags: "seed", run: runSynFlood,
		summary: "SYN-flood detector: half-open counters + alarm scans",
		smoke:   []string{"-scenario synflood -seed 3", "-scenario synflood -seed 11"}},
	{name: "ratelimit", flags: "seed", run: runRateLimit,
		summary: "per-tenant token-bucket enforcement",
		smoke:   []string{"-scenario ratelimit -seed 3", "-scenario ratelimit -seed 1"}},
	{name: "hhrecirc", flags: "seed", run: runHHRecirc,
		summary: "heavy hitter paying recirculation under a budget",
		smoke:   []string{"-scenario hhrecirc -seed 3", "-scenario hhrecirc -seed 5"}},
	{name: "quickstart", run: runQuickstart,
		summary: "admit a counter through the controller, send it packets, memory protection, a second tenant",
		smoke:   []string{"-scenario quickstart"}},
	{name: "heavyhitter", run: runHeavyHitter,
		summary: "count-min sketch + hot-key table vs ground truth (Appendix B.1)",
		smoke:   []string{"-scenario heavyhitter"}},
	{name: "paper", flags: "seed quick out", args: "id ... | all", run: runPaper,
		summary: "the paper's evaluation (Section 6): list the experiments, or run the named ones and write DIR/<id>.csv",
		smoke: []string{"-scenario paper", "-scenario paper -quick -seed 3 -out csv fig8b",
			// The timelines that were rows of their own: churn, case study, multi-tenant.
			"-scenario paper -quick -seed 3 -out csv fig8a", "-scenario paper -quick -seed 3 -out csv fig9a",
			"-scenario paper -quick -seed 3 -out csv fig9b"}},
	{name: "soak", by: "soak", flags: "seed soak-csv soak-secapps", run: runSoak,
		summary: "long-soak invariant harness: leaf-spine fabric under chaos, churn and a spine kill",
		smoke:   []string{"-soak 1m -seed 7 -soak-secapps", "-soak 1m -seed 7"}},
}

// selector renders how the command line picks the row.
func (r scenario) selector() string {
	if r.by == "" {
		return "-scenario " + r.name
	}
	sel := "-" + strings.Join(strings.Fields(r.by), "|-")
	if r.of != "" {
		sel = "-scenario " + r.of + " " + sel
	}
	return sel
}

// accepts renders the flags and arguments the row takes on top of its selector.
func (r scenario) accepts() string {
	if r.flags == "" {
		return "no flags"
	}
	acc := "-" + strings.Join(strings.Fields(r.flags), " -")
	if r.args != "" {
		acc += " [" + r.args + "]"
	}
	return acc
}

// usageError is a run function's way to reject its own flag values: exit 2.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// newFlags declares the command line over o. The -scenario help is the
// table's plain row names.
func newFlags(o *options) *flag.FlagSet {
	var names []string
	for _, r := range table {
		if r.by == "" {
			names = append(names, r.name)
		}
	}
	fs := flag.NewFlagSet("activesim", flag.ContinueOnError)
	fs.BoolVar(&o.list, "list", false, "print the scenario table and exit")
	fs.StringVar(&o.scenario, "scenario", "cache", strings.Join(names, " | "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.StringVar(&o.chaos, "chaos", "", "fault scenario: "+strings.Join(chaos.Names(), " | "))
	fs.BoolVar(&o.adversary, "adversary", false, "co-schedule an adversarial tenant attacking the cache")
	fs.StringVar(&o.telemetry, "telemetry", "", "serve Prometheus/JSON telemetry on this address during the run (e.g. 127.0.0.1:9464)")
	fs.StringVar(&o.topology, "topology", "single", `"single" or "leafspine:<leaves>x<spines>"`)
	fs.IntVar(&o.switches, "switches", 0, "shorthand for -topology leafspine:(N-1)x1")
	fs.DurationVar(&o.soak, "soak", 0, "run the long-soak invariant harness for this much virtual time (overrides -scenario)")
	fs.StringVar(&o.soakCSV, "soak-csv", "", "with -soak: write per-epoch metrics CSV to this file")
	fs.BoolVar(&o.soakSecapps, "soak-secapps", false, "with -soak: run the three security-app workload families alongside the cache load")
	fs.BoolVar(&o.quick, "quick", false, "with -scenario paper: reduced trials/epochs")
	fs.StringVar(&o.outDir, "out", "results", "with -scenario paper: output directory for CSV series")
	return fs
}

// run is main with its streams and exit code as values, so tests drive the
// command in-process.
func run(args []string, stdout, stderr io.Writer) int {
	o := &options{out: stdout}
	fs := newFlags(o)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage: activesim [-scenario NAME] [flags] [arguments]\n\n")
		printTable(stderr)
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if o.list {
		printTable(stdout)
		return 0
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "activesim: "+format+"\n", a...)
		return code
	}
	// A flag counts as used when it differs from its default; the row is the
	// one whose by-flag is used, else the one -scenario names.
	var used []string
	fs.VisitAll(func(f *flag.Flag) {
		if f.Value.String() != f.DefValue && f.Name != "scenario" {
			used = append(used, f.Name)
		}
	})
	row := slices.IndexFunc(table, func(r scenario) bool {
		return (r.of == "" || r.of == o.scenario) &&
			slices.ContainsFunc(strings.Fields(r.by), func(f string) bool { return slices.Contains(used, f) })
	})
	if row < 0 {
		row = slices.IndexFunc(table, func(r scenario) bool { return r.by == "" && r.name == o.scenario })
	}
	if row < 0 {
		return fail(2, "unknown scenario %q (want %s)", o.scenario, fs.Lookup("scenario").Usage)
	}
	r := table[row]
	for _, f := range used {
		if !slices.Contains(strings.Fields(r.by+" "+r.flags), f) {
			return fail(2, "-%s does not apply to %s (%s), which accepts %s", f, r.name, r.selector(), r.accepts())
		}
	}
	if o.args = fs.Args(); len(o.args) > 0 && r.args == "" {
		return fail(2, "arguments %q do not apply to %s (%s), which accepts %s", o.args, r.name, r.selector(), r.accepts())
	}
	if err := r.run(o); err != nil {
		if errors.As(err, new(usageError)) {
			return fail(2, "%v", err)
		}
		return fail(1, "%v", err)
	}
	return 0
}

// printTable renders the scenario table: -list's output and the usage text.
func printTable(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "SCENARIO\tSELECTED BY\tACCEPTS\tWHAT IT RUNS")
	for _, r := range table {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", r.name, r.selector(), r.accepts(), r.summary)
	}
	tw.Flush()
}
