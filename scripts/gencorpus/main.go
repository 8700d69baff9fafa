// Command gencorpus regenerates the decoder regression corpus at
// internal/core/testdata/decode_corpus: deterministic fault-injected
// mutants (truncations, bit flips, varint corruption) of valid TEA
// encodings, one file per mutant. FuzzDecode and TestDecodeCorpus read
// the files back, so every class of corruption the decoder must reject
// stays covered by plain `go test`.
//
// Beside the mutants it writes mret-unreachable.bin: an mret image with one
// in-trace transition dropped, so a TBB state is unreachable from NTE. The
// automaton it describes builds and passes Check, and the verifier flags it
// (A-REACH); the decoder must reject it with a *DecodeError.
//
// It also emits internal/verify/testdata/badcfg.bin: an image that decodes
// cleanly (all structural checks pass) but carries a same-trace link that
// is impossible in the program's CFG. The static verifier must flag it
// (A-CFG); scripts/ci.sh uses it as the negative test for the verify gate.
//
// And it emits the stride-table corpus for the same gate, recorded on the
// 901.steady cycle workload at a 200k-instruction target (so `teadump
// -bench 901.steady -target 200000` regenerates the identical program):
//
//	internal/verify/testdata/steady.tea        the TEA image
//	internal/verify/testdata/goodstride.teas   the table Specialize admitted
//	internal/verify/testdata/badstride.teas    one forged per-traversal delta
//
// badstride decodes cleanly — the wire format cannot see the forgery — and
// is proven to trip C-STRIDE before being written, mirroring badcfg.
//
// Usage: go run ./scripts/gencorpus
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/faultinject"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/serve"
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/verify"
	"github.com/lsc-tea/tea/internal/workload"
)

const outDir = "internal/core/testdata/decode_corpus"
const badDir = "internal/verify/testdata"
const wireDir = "internal/serve/testdata/wire_corpus"

// strideCorpusTarget is the dynamic-size target the stride corpus records
// 901.steady at; teadump must be invoked with the same -target to
// regenerate the identical program.
const strideCorpusTarget = 200_000

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gencorpus:", err)
		os.Exit(1)
	}
}

func run() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// The same program FuzzDecode decodes against.
	p := progs.Figure2(60, 200)
	for _, strategy := range []string{"mret", "tt", "ctt"} {
		s, _ := trace.NewStrategy(strategy, p, trace.Config{HotThreshold: 30})
		set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
		if err != nil {
			return err
		}
		data, err := core.Encode(core.Build(set))
		if err != nil {
			return err
		}
		if err := write(strategy+"-valid", data); err != nil {
			return err
		}
		for i, mut := range faultinject.Corpus(42, data, 24) {
			if err := write(fmt.Sprintf("%s-mut%02d", strategy, i), mut); err != nil {
				return err
			}
		}
	}
	unreach, err := makeUnreachable(p)
	if err != nil {
		return err
	}
	if err := write("mret-unreachable", unreach); err != nil {
		return err
	}
	bad, err := makeBadCFG(p)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(badDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(badDir, "badcfg.bin"), bad, 0o644); err != nil {
		return err
	}
	if err := writeStrideCorpus(); err != nil {
		return err
	}
	return writeWireCorpus()
}

// writeStrideCorpus records the 901.steady cycle workload, specializes its
// compiled form against the captured stream, and emits the image plus a
// good and a forged stride blob. Both blobs are proven before writing: the
// good one must verify clean against the image's compiled form; the bad one
// must decode (the forgery is semantic, invisible to the wire format) and
// trip a C-STRIDE error, so the checked-in negative test cannot go stale.
func writeStrideCorpus() error {
	spec, ok := workload.ByName("901.steady")
	if !ok {
		return errors.New("901.steady not registered")
	}
	p, err := workload.Generate(spec, strideCorpusTarget)
	if err != nil {
		return err
	}
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 8})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		return err
	}
	a := core.Build(set)
	data, err := core.Encode(a)
	if err != nil {
		return err
	}
	cache := cfg.NewCache(p, cfg.StarDBT)
	if r := verify.Image(data, cache, core.ConfigGlobalLocal); !r.OK() {
		return fmt.Errorf("steady image does not verify:\n%s", r)
	}

	cap := teatool.NewCaptureTool()
	if _, err := pin.New().Run(p, cap, 0); err != nil {
		return err
	}
	c := core.Compile(a, core.ConfigGlobalLocal)
	sp := core.Specialize(c, cap.Stream())
	if !sp.Specialized() {
		return errors.New("901.steady yielded no stride entries")
	}
	tab := sp.StrideTable()

	good := core.EncodeStrideTable(tab)
	dec, err := core.DecodeStrideTable(good)
	if err != nil {
		return fmt.Errorf("good stride blob does not decode: %v", err)
	}
	if r := verify.Compiled(c.WithStrideTable(dec)); !r.OK() {
		return fmt.Errorf("good stride blob does not verify:\n%s", r)
	}

	// Forge the fused instruction total of the first entry: every traversal
	// of that cycle would over-count Instrs, corrupting Stats silently.
	tab[0].Instrs++
	tab[0].DeltaGlobal.Instrs++
	tab[0].DeltaLocal.Instrs++
	bad := core.EncodeStrideTable(tab)
	decBad, err := core.DecodeStrideTable(bad)
	if err != nil {
		return fmt.Errorf("bad stride blob must still decode, got: %v", err)
	}
	if r := verify.Compiled(c.WithStrideTable(decBad)); !hasErrRule(r, "C-STRIDE") {
		return fmt.Errorf("forged stride blob does not trip C-STRIDE:\n%s", r)
	}

	for name, blob := range map[string][]byte{
		"steady.tea":      data,
		"goodstride.teas": good,
		"badstride.teas":  bad,
	} {
		if err := os.WriteFile(filepath.Join(badDir, name), blob, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeWireCorpus emits internal/serve/testdata/wire_corpus: one valid
// framed message per wire type (Edges in the legacy and the packed layout)
// plus deterministic fault-injected mutants
// of each full frame (header, checksum and payload all in scope).
// TestWireCorpus reads the files back and requires the valid frames to
// parse exactly and every mutant to fail — if at all — with a structured
// *serve.Error, keeping the serving layer's rejection paths covered by
// plain `go test`.
func writeWireCorpus() error {
	if err := os.MkdirAll(wireDir, 0o755); err != nil {
		return err
	}
	stats := core.Stats{Blocks: 1000, Instrs: 4000, TraceBlocks: 600, Desyncs: 2, Resyncs: 2}
	seeds := []struct {
		name    string
		payload []byte
	}{
		{"hello", (&serve.Hello{Version: serve.ProtoVersion, Tenant: "corpus"}).Append(nil)},
		{"helloack", (&serve.HelloAck{Version: serve.ProtoVersion}).Append(nil)},
		{"open", (&serve.Open{Image: "figure2", Resume: "s00000001"}).Append(nil)},
		{"openack", (&serve.OpenAck{Session: "s00000001", Gen: 1, Watermark: 128}).Append(nil)},
		{"edges", legacyEdges([]core.Edge{
			{Label: 0x400, Instrs: 12}, {Label: 0x41c, Instrs: 3}, {Label: 0x400, Instrs: 12},
		}, serve.NoClock)},
		{"edges-clock", legacyEdges([]core.Edge{
			{Label: 0x400, Instrs: 12}, {Label: 0x41c, Instrs: 3},
		}, 128)},
		{"edges-packed", serve.AppendEdges(nil, []core.Edge{
			{Label: 0x400, Instrs: 12}, {Label: 0x41c, Instrs: 3}, {Label: 0x400, Instrs: 12},
		}, serve.NoClock)},
		{"edges-packed-clock", serve.AppendEdges(nil, []core.Edge{
			{Label: 0x400, Instrs: 12}, {Label: 0x41c, Instrs: 3},
		}, 128)},
		{"edges-packed-escape", serve.AppendEdges(nil, []core.Edge{
			{Label: 0x08048000, Instrs: 12}, {Label: 0x08048010, Instrs: 300}, {Label: 0x400, Instrs: 3},
		}, 131)},
		{"edgesack", (&serve.EdgesAck{Watermark: 131}).Append(nil)},
		{"stats", (&serve.StatsMsg{Stats: stats, Final: core.NTE, Watermark: 1000}).Append(nil)},
		{"error", serve.AppendError(nil, &serve.Error{Code: serve.CodeBackpressure, Msg: "corpus", RetryAfter: 50 * time.Millisecond})},
		{"publish", (&serve.Publish{Image: "figure2", Data: []byte{1, 2, 3, 4}}).Append(nil)},
		{"publishack", (&serve.PublishAck{Gen: 2}).Append(nil)},
		{"hello-windowed", (&serve.Hello{Version: serve.ProtoVersion, Tenant: "corpus", Windowed: true}).Append(nil)},
		{"helloack-windowed", (&serve.HelloAck{Version: serve.ProtoVersion, Windowed: true}).Append(nil)},
		{"sync", []byte{byte(serve.FrameSync)}},
	}
	for _, seed := range seeds {
		var frame bytes.Buffer
		if err := serve.WriteFrame(&frame, seed.payload); err != nil {
			return err
		}
		if err := writeTo(wireDir, seed.name+"-valid", frame.Bytes()); err != nil {
			return err
		}
		for i, mut := range faultinject.Corpus(271828, frame.Bytes(), 12) {
			if err := writeTo(wireDir, fmt.Sprintf("%s-mut%02d", seed.name, i), mut); err != nil {
				return err
			}
		}
	}
	return nil
}

// legacyEdges builds an Edges frame payload in the varint layout that
// serve.AppendEdges wrote before the packed layout: a uvarint count, then
// per edge a zigzag-varint label delta and a uvarint instruction count,
// then the clock unless it is serve.NoClock. serve.ParseEdges still reads
// it, and the corpus keeps its frames so old clients stay covered.
func legacyEdges(edges []core.Edge, clock int64) []byte {
	dst := binary.AppendUvarint([]byte{byte(serve.FrameEdges)}, uint64(len(edges)))
	prev := uint64(0)
	for _, e := range edges {
		dst = binary.AppendVarint(dst, int64(e.Label-prev))
		dst = binary.AppendUvarint(dst, e.Instrs)
		prev = e.Label
	}
	if clock != serve.NoClock {
		dst = binary.AppendUvarint(dst, uint64(clock))
	}
	return dst
}

// makeBadCFG records an mret TEA and forges one same-trace link that skips
// an intermediate block — structurally valid wire format, impossible in the
// CFG. It proves the forgery both decodes and trips A-CFG before returning
// it, so the checked-in negative test can never go stale silently.
func makeBadCFG(p *isa.Program) ([]byte, error) {
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 30})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		return nil, err
	}
	cache := cfg.NewCache(p, cfg.StarDBT)
	for _, tr := range set.Traces {
		for i := 0; i+2 < len(tr.TBBs); i++ {
			from, to := tr.TBBs[i], tr.TBBs[i+2]
			if _, linked := from.Succs[to.Block.Head]; linked {
				continue
			}
			if err := from.Link(to); err != nil {
				continue
			}
			data, err := core.Encode(core.Build(set))
			if err != nil {
				return nil, err
			}
			if _, err := core.Decode(data, cache); err != nil {
				delete(from.Succs, to.Block.Head)
				continue
			}
			r := verify.Image(data, cache, core.ConfigGlobalLocal)
			if r.OK() || !hasErrRule(r, "A-CFG") {
				delete(from.Succs, to.Block.Head)
				continue
			}
			return data, nil
		}
	}
	return nil, errors.New("no trace admits a decodable CFG-impossible link")
}

// makeUnreachable records an mret TEA and drops every in-trace transition
// into one non-head TBB, leaving a state no path from NTE reaches. It proves
// before returning that the automaton still passes Check and trips A-REACH,
// and that Decode rejects the image with a *DecodeError, so the checked-in
// regression input cannot go stale silently.
func makeUnreachable(p *isa.Program) ([]byte, error) {
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 30})
	set, _, err := trace.Record(context.Background(), cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		return nil, err
	}
	cache := cfg.NewCache(p, cfg.StarDBT)
	for _, tr := range set.Traces {
		if len(tr.TBBs) < 2 {
			continue
		}
		dead := tr.TBBs[len(tr.TBBs)-1]
		for _, b := range tr.TBBs {
			for label, succ := range b.Succs {
				if succ == dead {
					delete(b.Succs, label)
				}
			}
		}
		a := core.Build(set)
		if err := a.Check(); err != nil {
			return nil, fmt.Errorf("unreachable-state automaton fails Check: %v", err)
		}
		if r := verify.Automaton(a, cache); !hasErrRule(r, "A-REACH") {
			return nil, fmt.Errorf("unreachable-state automaton does not trip A-REACH:\n%s", r)
		}
		data, err := core.Encode(a)
		if err != nil {
			return nil, err
		}
		var de *core.DecodeError
		if _, err := core.Decode(data, cache); !errors.As(err, &de) {
			return nil, fmt.Errorf("decoder accepts an unreachable state (err %v)", err)
		}
		return data, nil
	}
	return nil, errors.New("no mret trace has two TBBs")
}

func hasErrRule(r *verify.Report, rule string) bool {
	for _, f := range r.Findings {
		if f.Rule == rule && f.Severity == verify.Error {
			return true
		}
	}
	return false
}

func write(name string, data []byte) error {
	return writeTo(outDir, name, data)
}

func writeTo(dir, name string, data []byte) error {
	return os.WriteFile(filepath.Join(dir, name+".bin"), data, 0o644)
}
