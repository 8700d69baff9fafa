package core

import (
	"fmt"
	"strings"
	"unsafe"
)

// ResidentBytes is the compiled form's resident size in bytes: the hot and
// cold record arrays, the offset table and the label and target arenas,
// the entry table, its presence filter, and — when specialized — the
// stride table with its probe mirror and every entry's pattern, trajectory,
// miss positions and tile. Per-replayer local caches are not counted; they
// live on each CompiledReplayer.
func (c *Compiled) ResidentBytes() int {
	n := len(c.hot)*HotRecSize + len(c.cold)*ColdRecSize +
		len(c.off)*4 + len(c.labels)*8 + len(c.targets)*4 +
		len(c.ent)*int(unsafe.Sizeof(entSlot{})) + len(c.filt)*8 +
		len(c.strideProbe)*int(unsafe.Sizeof(strideProbeRec{}))
	for i := range c.stride {
		e := &c.stride[i]
		n += int(unsafe.Sizeof(*e)) + (len(e.Pattern)+len(e.Tile))*int(unsafe.Sizeof(Edge{})) +
			len(e.States)*4 + len(e.MissPos)*4
	}
	return n
}

// rowStates counts the states that carry a complete successor row.
func (c *Compiled) rowStates() int {
	rows := 0
	for i := range c.hot {
		if _, ok := c.row(c.a.states[i], &c.cold[i]); ok {
			rows++
		}
	}
	return rows
}

// Layout renders the compiled form's memory-layout report: residency of the
// hot and cold SoA arrays, the transition arenas, the entry table and its
// filter, and — when specialized — stride-table occupancy. teaprof -layout
// prints this so layout regressions (a record growing past its cache-line
// budget, a table blowing its cap) are visible without a profiler.
func (c *Compiled) Layout() string {
	var b strings.Builder
	n := len(c.hot)
	line := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	line("compiled layout (SoA split):")
	line("  states:            %d (+ NTE)", n)
	line("  hot array:         %d × %d B = %s (%d records per 64 B line, %d lines)",
		n, HotRecSize, byteCount(n*HotRecSize), 64/HotRecSize, (n*HotRecSize+63)/64)
	line("  cold array:        %d × %d B = %s (slot-miss plausibility only)",
		n, ColdRecSize, byteCount(n*ColdRecSize))
	line("  successor rows:    %d of %d states (direct terminator, in-trace labels on the pair)",
		c.rowStates(), n)
	line("  transition arena:  %d edges, %s labels + %s targets",
		len(c.labels), byteCount(len(c.labels)*8), byteCount(len(c.targets)*4))
	occupied := 0
	for _, e := range c.ent {
		if e.val >= 0 {
			occupied++
		}
	}
	pct := 0.0
	if len(c.ent) > 0 {
		pct = 100 * float64(occupied) / float64(len(c.ent))
	}
	line("  entry table:       %d/%d slots (%.0f%% load), filter %s",
		occupied, len(c.ent), pct, byteCount(len(c.filt)*8))
	if c.localSize > 0 {
		line("  local caches:      %d-way per-state (allocated on replayers, not here)", c.localSize)
	} else {
		line("  local caches:      off")
	}

	line("  resident:          %s (%d B; local caches excluded)", byteCount(c.ResidentBytes()), c.ResidentBytes())
	if len(c.stride) == 0 {
		line("stride table:        none (unspecialized form)")
		return b.String()
	}
	anchors, tiled, chainMax := 0, 0, 0
	minK, maxK, sumK := int(^uint(0)>>1), 0, 0
	for i := range c.hot {
		depth := 0
		for si := c.hot[i].stride; si != noStride; si = c.stride[si].Next {
			depth++
		}
		if depth > 0 {
			anchors++
		}
		if depth > chainMax {
			chainMax = depth
		}
	}
	for i := range c.stride {
		k := len(c.stride[i].Pattern)
		sumK += k
		if k < minK {
			minK = k
		}
		if k > maxK {
			maxK = k
		}
		if c.stride[i].TileReps > 0 {
			tiled++
		}
	}
	line("stride table:")
	line("  entries:           %d/%d (cap), %d anchor state(s), longest chain %d/%d ways",
		len(c.stride), maxStrideEntries, anchors, chainMax, maxStrideWays)
	line("  pattern edges:     min %d / avg %.1f / max %d (cap %d)",
		minK, float64(sumK)/float64(len(c.stride)), maxK, maxStrideLen)
	line("  tiled entries:     %d (short cycles replicated toward %d-edge tiles)", tiled, strideTileLen)
	return b.String()
}

// byteCount formats n bytes human-readably (B / KiB / MiB).
func byteCount(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
