package main

// The metrics subcommand scrapes a live telemetry endpoint (a nezha-node
// or nezha-bench started with -metrics-addr) and pretty-prints the
// exposition: families grouped with their type and help text, samples
// aligned, histograms condensed to count/sum/mean unless -buckets is set.

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func runMetricsCmd(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "localhost:9090", "host:port (or full URL) of a -metrics-addr endpoint")
		filter  = fs.String("filter", "", "only show families whose name contains this substring")
		buckets = fs.Bool("buckets", false, "show individual histogram buckets")
		timeout = fs.Duration("timeout", 5*time.Second, "scrape timeout")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: nezha-inspect metrics [-addr host:port] [-filter substr] [-buckets]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	url := *addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.HasSuffix(url, "/metrics") {
		url = strings.TrimSuffix(url, "/") + "/metrics"
	}
	client := &http.Client{Timeout: *timeout}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape %s: HTTP %s", url, resp.Status)
	}
	fams, err := parseExposition(resp.Body)
	if err != nil {
		return err
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		if *filter != "" && !strings.Contains(name, *filter) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Println("no matching series")
		return nil
	}
	for _, name := range names {
		printFamily(fams[name], *buckets)
	}
	printMVCCSummary(fams, names)
	return nil
}

// printMVCCSummary derives the version-cache health numbers from the raw
// nezha_mvcc_* families (and the look-ahead outcomes beside them): rates are
// ratios of counters the exposition only shows as absolutes, and the mean
// chain depth folds the depth histogram. Printed only when at least one mvcc
// family survived the filter, so `-filter nezha_mvcc` gives the full picture
// in one screen.
func printMVCCSummary(fams map[string]*expoFamily, shown []string) {
	seen := false
	for _, name := range shown {
		if strings.HasPrefix(name, "nezha_mvcc_") {
			seen = true
			break
		}
	}
	if !seen {
		return
	}
	total := func(name string) (float64, bool) {
		f, ok := fams[name]
		if !ok {
			return 0, false
		}
		sum := 0.0
		for _, s := range f.samples {
			if strings.HasSuffix(s.series, "_bucket") {
				continue // histogram buckets are cumulative, not additive
			}
			sum += s.value
		}
		return sum, true
	}
	ratio := func(num, den float64) string {
		if den == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", 100*num/den)
	}
	// Each derived line prints only when the families it folds are actually
	// in the scrape — a node that never created the MVCC cache (or a
	// -filter that excluded a family) must not yield fabricated zeros.
	printed := false
	header := func() {
		if !printed {
			fmt.Println("mvcc summary")
			printed = true
		}
	}
	hits, okH := total("nezha_mvcc_cache_hits_total")
	misses, okM := total("nezha_mvcc_cache_misses_total")
	if okH || okM {
		header()
		fmt.Printf("  %-28s %s (%s hits, %s misses)\n", "version-cache hit rate",
			ratio(hits, hits+misses), formatNum(hits), formatNum(misses))
	}
	// What warms the cache for an epoch is the look-ahead run that executed
	// it early; the share of epochs that adopted theirs says how often.
	if f, ok := fams["nezha_node_lookahead_total"]; ok {
		var adopted, all float64
		for _, s := range f.samples {
			all += s.value
			if strings.Contains(s.labels, `outcome="adopted"`) {
				adopted += s.value
			}
		}
		header()
		fmt.Printf("  %-28s %s (%s of %s epochs ran ahead of their turn)\n", "look-ahead adoption rate",
			ratio(adopted, all), formatNum(adopted), formatNum(all))
	}
	if gc, ok := total("nezha_mvcc_gc_versions_total"); ok {
		header()
		fmt.Printf("  %-28s %s\n", "versions folded by GC", formatNum(gc))
	}
	chains, okC := total("nezha_mvcc_live_chains")
	versions, okV := total("nezha_mvcc_live_versions")
	if okC || okV {
		header()
		fmt.Printf("  %-28s %s chains / %s versions\n", "live state", formatNum(chains), formatNum(versions))
	}
	if f, ok := fams["nezha_mvcc_chain_depth"]; ok {
		var count, sum float64
		for _, s := range f.samples {
			switch {
			case strings.HasSuffix(s.series, "_count"):
				count += s.value
			case strings.HasSuffix(s.series, "_sum"):
				sum += s.value
			}
		}
		if count > 0 {
			header()
			fmt.Printf("  %-28s %.2f versions (over %s GC observations)\n", "mean chain depth", sum/count, formatNum(count))
		}
	}
	if !printed {
		fmt.Println("mvcc summary: no derivable nezha_mvcc_* counters in this scrape")
	}
	fmt.Println()
}

// expoFamily is one parsed metric family.
type expoFamily struct {
	name    string
	kind    string
	help    string
	samples []expoSample
}

// expoSample is one exposition line: a possibly-suffixed series name, its
// label string, and the value.
type expoSample struct {
	series string // full series name, e.g. foo_bucket
	labels string // raw {..} text, "" when unlabelled
	value  float64
}

// parseExposition reads Prometheus text format, grouping samples under
// their family (histogram _bucket/_sum/_count series fold into the base
// name).
func parseExposition(r io.Reader) (map[string]*expoFamily, error) {
	fams := make(map[string]*expoFamily)
	get := func(name string) *expoFamily {
		f, ok := fams[name]
		if !ok {
			f = &expoFamily{name: name, kind: "untyped"}
			fams[name] = f
		}
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			get(name).help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			get(name).kind = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		series := line
		labels := ""
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				continue // malformed
			}
			series, labels = line[:i], line[i:j+1]
			rest = line[:i] + " " + line[j+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		base := series
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(series, suffix)
			if trimmed != series {
				if f, ok := fams[trimmed]; ok && f.kind == "histogram" {
					base = trimmed
				}
				break
			}
		}
		get(base).samples = append(get(base).samples, expoSample{series: series, labels: labels, value: v})
	}
	return fams, sc.Err()
}

// printFamily renders one family. Histograms aggregate to count, sum,
// and mean per label set; -buckets expands the cumulative buckets too.
func printFamily(f *expoFamily, showBuckets bool) {
	fmt.Printf("%s (%s)", f.name, f.kind)
	if f.help != "" {
		fmt.Printf(" — %s", f.help)
	}
	fmt.Println()
	if f.kind == "histogram" {
		printHistogramFamily(f, showBuckets)
		fmt.Println()
		return
	}
	sort.Slice(f.samples, func(i, j int) bool { return f.samples[i].labels < f.samples[j].labels })
	for _, s := range f.samples {
		label := s.labels
		if label == "" {
			label = "(no labels)"
		}
		fmt.Printf("  %-60s %s\n", label, formatNum(s.value))
	}
	fmt.Println()
}

func printHistogramFamily(f *expoFamily, showBuckets bool) {
	type agg struct {
		count, sum float64
		buckets    []expoSample
	}
	byLabel := make(map[string]*agg)
	var order []string
	get := func(labels string) *agg {
		a, ok := byLabel[labels]
		if !ok {
			a = &agg{}
			byLabel[labels] = a
			order = append(order, labels)
		}
		return a
	}
	for _, s := range f.samples {
		switch {
		case strings.HasSuffix(s.series, "_count"):
			get(s.labels).count = s.value
		case strings.HasSuffix(s.series, "_sum"):
			get(s.labels).sum = s.value
		case strings.HasSuffix(s.series, "_bucket"):
			base := stripLabel(s.labels, "le")
			get(base).buckets = append(get(base).buckets, s)
		}
	}
	sort.Strings(order)
	for _, labels := range order {
		a := byLabel[labels]
		name := labels
		if name == "" {
			name = "(no labels)"
		}
		mean := 0.0
		if a.count > 0 {
			mean = a.sum / a.count
		}
		fmt.Printf("  %-60s count=%s sum=%s mean=%s\n",
			name, formatNum(a.count), formatNum(a.sum), formatNum(mean))
		if showBuckets {
			for _, b := range a.buckets {
				fmt.Printf("    %-58s %s\n", b.labels, formatNum(b.value))
			}
		}
	}
}

// stripLabel removes one label pair from a raw {..} label string.
func stripLabel(labels, name string) string {
	if labels == "" {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	parts := splitLabels(inner)
	kept := parts[:0]
	for _, p := range parts {
		if !strings.HasPrefix(p, name+"=") {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		return ""
	}
	return "{" + strings.Join(kept, ",") + "}"
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func formatNum(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
