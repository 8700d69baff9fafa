package serve

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/lsc-tea/tea/internal/core"
)

// parseBody dispatches a frame body to its typed parser, mirroring what
// the server and client do with a frame they just read.
func parseBody(t FrameType, body []byte) error {
	switch t {
	case FrameHello:
		_, err := ParseHello(body)
		return err
	case FrameHelloAck:
		_, err := ParseHelloAck(body)
		return err
	case FrameOpen:
		_, err := ParseOpen(body)
		return err
	case FrameOpenAck:
		_, err := ParseOpenAck(body)
		return err
	case FrameEdges:
		_, _, err := ParseEdges(body, nil)
		return err
	case FrameEdgesAck:
		_, err := ParseEdgesAck(body)
		return err
	case FrameStats:
		_, err := ParseStats(body)
		return err
	case FrameError:
		_, err := ParseError(body)
		return err
	case FramePublish:
		_, err := ParsePublish(body)
		return err
	case FramePublishAck:
		_, err := ParsePublishAck(body)
		return err
	case FrameSync:
		return parseSync(body)
	}
	return errf(CodeProto, "unknown frame type %d", t)
}

// TestWireCorpus replays the checked-in malformed-wire-frame corpus
// (scripts/gencorpus regenerates it): every *-valid.bin frame must read
// and parse cleanly, and every mutant must either be caught — by the
// frame checksum or a parser — with a structured *Error, or decode as a
// harmlessly different valid frame. Nothing in the corpus may panic, and
// truncated frames must surface as clean io errors from ReadFrame.
func TestWireCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "wire_corpus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("corpus missing (run `go run ./scripts/gencorpus`): %v", err)
	}
	valid, mutants, rejected := 0, 0, 0
	for _, e := range entries {
		name := e.Name()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		payload, rerr := ReadFrame(bytes.NewReader(data), nil)
		if strings.HasSuffix(name, "-valid.bin") {
			valid++
			if rerr != nil {
				t.Errorf("%s: ReadFrame: %v", name, rerr)
				continue
			}
			ft, body, perr := ParseFrame(payload)
			if perr != nil {
				t.Errorf("%s: ParseFrame: %v", name, perr)
				continue
			}
			if err := parseBody(ft, body); err != nil {
				t.Errorf("%s: parse: %v", name, err)
			}
			continue
		}
		mutants++
		if rerr == nil {
			ft, body, perr := ParseFrame(payload)
			if perr == nil {
				perr = parseBody(ft, body)
			}
			rerr = perr
		}
		if rerr == nil {
			continue // mutated into a different valid frame; harmless
		}
		rejected++
		var serr *Error
		if errors.As(rerr, &serr) {
			continue
		}
		if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
			continue // truncation below a full header/payload
		}
		t.Errorf("%s: unstructured rejection %T: %v", name, rerr, rerr)
	}
	if valid == 0 || mutants == 0 {
		t.Fatalf("corpus incomplete: %d valid, %d mutants", valid, mutants)
	}
	// The checksum plus the parsers must catch a healthy majority of the
	// seeded mutations; if this drops the corpus has gone stale.
	if rejected*2 < mutants {
		t.Fatalf("only %d/%d mutants rejected; corpus or checksum regressed", rejected, mutants)
	}
}

// TestEdgesCorpusDecodes pins the decoded edges and clock of the
// checked-in valid Edges frames: the legacy varint bodies, which old
// clients still send and serve no longer writes, and the packed ones.
func TestEdgesCorpusDecodes(t *testing.T) {
	three := []core.Edge{{Label: 0x400, Instrs: 12}, {Label: 0x41c, Instrs: 3}, {Label: 0x400, Instrs: 12}}
	for _, c := range []struct {
		name   string
		packed bool
		edges  []core.Edge
		clock  int64
	}{
		{"edges", false, three, NoClock},
		{"edges-clock", false, three[:2], 128},
		{"edges-packed", true, three, NoClock},
		{"edges-packed-clock", true, three[:2], 128},
		{"edges-packed-escape", true, []core.Edge{
			{Label: 0x08048000, Instrs: 12}, {Label: 0x08048010, Instrs: 300}, {Label: 0x400, Instrs: 3},
		}, 131},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", "wire_corpus", c.name+"-valid.bin"))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			t.Fatalf("%s: ReadFrame: %v", c.name, err)
		}
		typ, body, _ := ParseFrame(payload)
		if typ != FrameEdges {
			t.Fatalf("%s: frame type %v", c.name, typ)
		}
		if v, _ := uvarintAt(body, 0); (v&edgesPacked != 0) != c.packed {
			t.Fatalf("%s: count %#x, want packed=%v", c.name, v, c.packed)
		}
		checkEdgesBody(t, c.name, body, c.edges, c.clock)
	}
}
