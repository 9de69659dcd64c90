package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/alto"
	"repro/internal/cpu"
	"repro/internal/dense"
)

// cohort identifies the conditions a result was measured under. Results
// from different cohorts measure different machines or kernels and are
// never compared.
type cohort struct {
	Kernels    string `json:"kernels"` // the splatt-cpuinfo line
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// stamp is the provenance attached to every result: the cohort plus what
// was measured (commit or source hash, workload seed).
type stamp struct {
	Cohort cohort `json:"cohort"`
	Commit string `json:"commit"`
	Seed   int64  `json:"seed"`
}

// kernelSet renders the dispatch the program resolved, in the same form
// cmd/splatt-cpuinfo prints.
func kernelSet() string {
	walker := "tables"
	if alto.NativeExtract() {
		walker = "pext"
	}
	return fmt.Sprintf("cpu=%s dense=%s alto=%s", cpu.Summary(), dense.KernelISA(), walker)
}

func currentCohort() cohort {
	return cohort{
		Kernels:    kernelSet(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// sourceID names the code under test: the git commit when root is a work
// tree, otherwise a hash of every Go source and module file under root
// (the benchmark may run from an exported checkout with no history).
func sourceID(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || strings.HasSuffix(n, ".s") || n == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// record is the full result of one benchmark run, written next to the
// one-line summary so runs can be compared later.
type record struct {
	Stamp    stamp             `json:"stamp"`
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Result   result            `json:"result"`
	Checks   []check           `json:"checks"`
	Extra    map[string]metric `json:"extra,omitempty"`
}

func readRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareRecords prints, for every metric the two sets share, each set's
// median and the change against the metric's bound. It refuses when the
// records span more than one cohort or more than one workload.
func compareRecords(w io.Writer, base, head []record) error {
	all := append(append([]record(nil), base...), head...)
	if len(base) == 0 || len(head) == 0 {
		return fmt.Errorf("compare: need at least one record on each side")
	}
	for _, r := range all[1:] {
		if r.Stamp.Cohort != all[0].Stamp.Cohort {
			return fmt.Errorf("compare: refusing to compare across cohorts: %+v vs %+v",
				all[0].Stamp.Cohort, r.Stamp.Cohort)
		}
		if r.Workload != all[0].Workload || r.Trace != all[0].Trace {
			return fmt.Errorf("compare: records mix workloads or trace modes (%s/%v vs %s/%v)",
				all[0].Workload, all[0].Trace, r.Workload, r.Trace)
		}
	}
	defs := metricDefs()
	names := make([]string, 0, len(base[0].Result.Metrics))
	for n := range base[0].Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %14s %14s %9s %7s  %s\n", "metric", "base_median", "head_median", "change", "bound", "verdict")
	for _, n := range names {
		b, h := values(base, n), values(head, n)
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		mb, mh := median(b), median(h)
		change := (mh - mb) / mb
		def, known := defs[n]
		verdict := "-"
		if known && def.Bound > 0 {
			worse := change
			if def.Better == "higher" {
				worse = -change
			}
			verdict = "ok"
			if worse > def.Bound {
				verdict = "REGRESSED"
			}
			if s := spread(b); s > def.Bound {
				verdict += " (unresolved: base spread " + fmt.Sprintf("%.3f", s) + ")"
			}
		}
		fmt.Fprintf(w, "%-24s %14.6g %14.6g %+8.2f%% %7.2f  %s\n", n, mb, mh, 100*change, def.Bound, verdict)
	}
	return nil
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
