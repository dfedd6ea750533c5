package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// defaultOutDir is where a traced run dumps its spans unless -out says
// otherwise: out/ beside the running binary.
func defaultOutDir() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	return filepath.Join(filepath.Dir(exe), "out"), nil
}

// ensureCheckpoint returns the path of a checkpoint trained by exactly
// this binary, training it in a child process if it is not cached. The
// cache is the directory of the running binary (run.sh builds into the
// checkout's build directory; under `go run` it is go's temporary
// directory, and every invocation trains afresh). The file name carries
// the binary's hash, so any change to the program or the benchmark
// retrains, and a stale model is never served.
func ensureCheckpoint(smoke bool) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	dir := filepath.Dir(exe)
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return "", err
	}
	prefix := "model-"
	if smoke {
		prefix = "smoke-"
	}
	path := filepath.Join(dir, prefix+hex.EncodeToString(h.Sum(nil))[:16]+".ckpt")
	if _, err := os.Stat(path + ".json"); err == nil {
		return path, nil
	}
	// Drop checkpoints of earlier binaries before training a new one.
	old, _ := filepath.Glob(filepath.Join(dir, prefix+"*.ckpt*"))
	for _, p := range old {
		os.Remove(p)
	}
	fmt.Fprintf(os.Stderr, "bench: training the model (once per build)...\n")
	args := []string{"-train-to", path}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = childEnv()
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("training child: %w", err)
	}
	return path, nil
}

// childEnv is the environment a child gets: where to find temporary
// space and a home for the toolchain-free runtime, nothing else.
// Everything that shapes the run travels on the command line.
func childEnv() []string {
	var env []string
	for _, k := range []string{"TMPDIR", "PATH", "HOME"} {
		if v, ok := os.LookupEnv(k); ok {
			env = append(env, k+"="+v)
		}
	}
	return env
}

// runWorkload re-executes this binary for one workload and decodes the
// result it prints.
func runWorkload(name string, seed int64, seconds int, trace, smoke bool, ckpt, outDir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", t, "-ckpt", ckpt, "-out", outDir}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = childEnv()
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: child: %w", name, err)
	}
	var r result
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("workload %s: child output: %w", name, err)
	}
	return &r, nil
}

// workloadNames resolves -workload.
func workloadNames(arg string) ([]string, error) {
	if arg == "all" {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return names, nil
	}
	if _, err := findWorkload(arg); err != nil {
		return nil, err
	}
	return []string{arg}, nil
}

// runParent runs the named workloads, one child each, prints every
// metric by name with its unit, and ends with one JSON line per
// workload in the driver's shape. It returns the exit code: non-zero
// if any output check failed.
func runParent(arg string, seed int64, seconds int, trace, smoke bool, outDir string) int {
	names, err := workloadNames(arg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	ckpt, err := ensureCheckpoint(smoke)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if outDir == "" {
		if outDir, err = defaultOutDir(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	code := 0
	var lines []string
	for _, name := range names {
		r, err := runWorkload(name, seed, seconds, trace, smoke, ckpt, outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		printResult(os.Stdout, r)
		if !r.OutputsOK {
			code = 1
		}
		lines = append(lines, driverLine(r))
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	return code
}

// driverLine is the one-line JSON object the driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func driverLine(r *result) string {
	ms := r.EndToEnd
	if r.Header.Trace {
		ms = r.PerLayer
	}
	type dm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]dm `json:"metrics"`
	}{Correct: r.OutputsOK, Metrics: map[string]dm{}}
	out.Attempted, out.Failed = r.attempted()
	for k, m := range ms {
		out.Metrics[k] = dm{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// printResult prints one result row for people: header, phases,
// metrics by name with unit and sample count, failed checks.
func printResult(w io.Writer, r *result) {
	h := r.Header
	fmt.Fprintf(w, "== %s  seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d %s simd=%s commit=%s outputs_ok=%v\n",
		h.Workload, h.Seed, h.Seconds, h.Trace, h.NProc, h.GOMAXPROCS, h.GoVersion, h.SIMD, h.Commit, r.OutputsOK)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "   phase %-16s wall %8.3fs  ops %6d  failed %d  tweets %6d  samples %d", p.Name, p.WallS, p.Attempted, p.Failed, p.Tweets, p.Samples)
		if p.MaxLateMS > 0 || p.Unsent > 0 {
			fmt.Fprintf(w, "  max_late %.2fms  unsent %d", p.MaxLateMS, p.Unsent)
		}
		fmt.Fprintln(w)
	}
	for _, group := range []map[string]metric{r.EndToEnd, r.Extra, r.PerLayer} {
		names := make([]string, 0, len(group))
		for k := range group {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := group[k]
			n := ""
			if m.N > 0 {
				n = fmt.Sprintf("  (n=%d)", m.N)
			}
			fmt.Fprintf(w, "   %-36s %14s %-9s%s\n", k, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit, n)
		}
	}
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "   FAILED %s: %s\n", c.Name, strings.TrimSpace(c.Detail))
		}
	}
}
