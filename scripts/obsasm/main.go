// Command obsasm checks that observability code stays out of the obs-off
// replay and record kernels. Each compiled kernel in internal/core is one
// generic body instantiated in two modes (internal/core/obsmode.go); the
// obsOff instance must compile to a body with no event code in it. obsasm
// compiles the package with -gcflags=-S and, for every kernel, scans the
// instance of the selected mode. A line is a leak when it
//
//   - is attributed to obsmode.go (the event emitter, inlined or not) or to
//     any file of internal/obs,
//   - calls or references a symbol of internal/obs or the emitter, or
//   - calls an instance whose first shape, the observability mode, is on.
//
// The cached kernel, advanceCached, has a second mode parameter (with and
// without the stride probe), so it has one instance per stride mode in each
// observability mode; advanceCached[on] is the instance with the probe. Every
// kernel's instances must be present in the listing, so a rename cannot
// make the check pass vacuously.
//
// -mode on is the negative self-test: it scans the obsOn instances, each of
// which must carry obs code, so a scan that stopped recognizing obs code
// cannot pass. It exits 1 only when every instance is flagged, and 2 naming
// the instances that carry none.
//
// Usage, from the repository root:
//
//	go run ./scripts/obsasm            # obsOff instances: exit 0 when clean
//	go run ./scripts/obsasm -mode on   # negative self-test: must exit 1
//
// Exit status: 0 clean, 1 leaks found (with -mode on: every kernel
// flagged), 2 usage or build error (with -mode on: some kernel unflagged).
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

const pkg = "github.com/lsc-tea/tea/internal/core"

// kernels are the folded replay and record kernels, one generic body each;
// stride marks the one with a stride mode after the observability mode.
var kernels = []struct {
	name   string
	stride bool
}{
	{"step", false}, {"scan", false}, {"merge", false},
	{"advanceCached", true}, {"recScan", false}, {"mergeRecord", false},
}

// Shapes of the two values of a mode type in compiled symbol names: a
// zero-size struct for off, a one-byte one for on.
const (
	shapeOff = "go.shape.struct {}"
	shapeOn  = "go.shape.struct { " + pkg + "._ uint8 }"
)

func main() {
	mode := flag.String("mode", "off", "which instances to scan: off (the gate) or on (negative self-test)")
	flag.Parse()
	if *mode != "off" && *mode != "on" {
		fmt.Fprintf(os.Stderr, "obsasm: -mode must be off or on, got %q\n", *mode)
		os.Exit(2)
	}
	cmd := exec.Command("go", "build", "-o", os.DevNull, "-gcflags="+pkg+"=-S", pkg)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "obsasm: go build: %v\n%s", err, out.Bytes())
		os.Exit(2)
	}
	leaks, missing := scan(out.Bytes(), *mode)
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "obsasm: no %s instance in the listing for: %s\n", *mode, strings.Join(missing, ", "))
		os.Exit(2)
	}
	for _, l := range leaks {
		fmt.Println(l)
	}
	if *mode == "on" {
		if clean := unflagged(leaks); len(clean) > 0 {
			fmt.Fprintf(os.Stderr, "obsasm: no obs code in the obsOn instance of: %s\n", strings.Join(clean, ", "))
			os.Exit(2)
		}
	}
	if len(leaks) > 0 {
		fmt.Printf("obsasm: %d obs lines in obs-%s kernel instances\n", len(leaks), *mode)
		os.Exit(1)
	}
	fmt.Printf("obsasm: %d obs-%s kernel instances carry no obs code\n", len(instances()), *mode)
}

// instances lists every kernel instance label of one observability mode:
// the kernel's name, and for the strided kernel one label per stride mode.
func instances() []string {
	var out []string
	for _, k := range kernels {
		if k.stride {
			out = append(out, k.name+"[off]", k.name+"[on]")
		} else {
			out = append(out, k.name)
		}
	}
	return out
}

// instance returns the instance label and the observability mode of a
// compiled symbol of a kernel, or ok == false for any other symbol.
func instance(sym string) (label, mode string, ok bool) {
	name, args, found := strings.Cut(strings.TrimPrefix(sym, pkg+"."), "[")
	if !found || !strings.HasSuffix(args, "](SB)") {
		return "", "", false
	}
	var modes []string
	for _, shape := range strings.Split(strings.TrimSuffix(args, "](SB)"), ",") {
		switch shape {
		case shapeOff:
			modes = append(modes, "off")
		case shapeOn:
			modes = append(modes, "on")
		default:
			return "", "", false
		}
	}
	for _, k := range kernels {
		switch {
		case k.name != name:
		case !k.stride && len(modes) == 1:
			return name, modes[0], true
		case k.stride && len(modes) == 2:
			return name + "[" + modes[1] + "]", modes[0], true
		}
	}
	return "", "", false
}

// scan walks a -S listing and returns the leak lines of the kernels'
// instances of the given observability mode (each prefixed with its
// instance label), plus the instances that never appeared.
func scan(listing []byte, mode string) (leaks, missing []string) {
	seen := make(map[string]bool)
	cur := ""
	sc := bufio.NewScanner(bytes.NewReader(listing))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		// "\t0x0000 00000 (file:line)\tTEXT\tsym(SB), flags": the
		// symbol itself may contain spaces.
		if f := strings.Split(line, "\t"); len(f) >= 4 && f[2] == "TEXT" {
			sym, _, _ := strings.Cut(f[3], ", ")
			label, m, ok := instance(sym)
			cur = ""
			if ok && m == mode {
				cur = label
				seen[cur] = true
			}
			continue
		}
		if cur != "" && strings.HasPrefix(line, "\t0x") && leak(line) {
			leaks = append(leaks, cur+":"+line)
		}
	}
	for _, k := range instances() {
		if !seen[k] {
			missing = append(missing, k)
		}
	}
	return leaks, missing
}

// unflagged returns the instances none of whose lines are among leaks.
func unflagged(leaks []string) []string {
	flagged := make(map[string]bool)
	for _, l := range leaks {
		k, _, _ := strings.Cut(l, ":")
		flagged[k] = true
	}
	var out []string
	for _, k := range instances() {
		if !flagged[k] {
			out = append(out, k)
		}
	}
	return out
}

// leak reports whether one instruction line of a -S listing carries obs
// code: a source position in the emitter's file or the obs package, a
// reference to either, or a call into an instance whose observability mode
// (its first shape) is on.
func leak(line string) bool {
	return strings.Contains(line, "/internal/core/obsmode.go:") ||
		strings.Contains(line, "/internal/obs/") ||
		strings.Contains(line, "tea/internal/obs.") ||
		strings.Contains(line, pkg+".emit") ||
		strings.Contains(line, "CALL") && strings.Contains(line, "["+shapeOn)
}
