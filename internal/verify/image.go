package verify

import (
	"fmt"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
)

// Image audits a serialized TEA image end-to-end: decode it against the
// program image, then run every automaton rule (including the CFG rules)
// and every compiled rule over the result. Anything core.Decode accepts
// must pass both rule families, or the findings say which rule rejected
// it and where.
//
// A decode rejection is itself reported as a W-DEC finding carrying the
// byte offset and field from the *core.DecodeError, so fuzzers and the CI
// gate handle "rejected" and "decoded but structurally bad" through one
// interface.
func Image(data []byte, cache *cfg.Cache, cfg core.LookupConfig) *Report {
	_, _, r := AdmitImage(data, cache, cfg)
	return r
}

// AdmitImage is Image returning the artifacts it verified as well: the
// decoded automaton and the compiled form the C-* rules audited (both nil
// when decoding failed). An admission gate swaps in exactly what was
// proven instead of decoding and compiling the image a second time.
func AdmitImage(data []byte, cache *cfg.Cache, cfg core.LookupConfig) (*core.Automaton, *core.Compiled, *Report) {
	a, err := core.Decode(data, cache)
	if err != nil {
		f := Finding{Rule: "W-DEC", Severity: Error, State: -1, Offset: -1,
			Locus: "image", Msg: err.Error()}
		if de, ok := err.(*core.DecodeError); ok {
			f.Offset = de.Offset
			f.Locus = fmt.Sprintf("offset %d (%s)", de.Offset, de.Field)
		}
		return nil, nil, &Report{Findings: []Finding{f}}
	}
	c, r := AdmitAutomaton(a, cache, cfg)
	return a, c, r
}

// AdmitAutomaton runs every automaton rule (the CFG rules too when cache
// is non-nil) and the full compiled-form audit over an in-memory
// automaton, returning the compiled form it audited with the report.
func AdmitAutomaton(a *core.Automaton, cache *cfg.Cache, cfg core.LookupConfig) (*core.Compiled, *Report) {
	c := core.Compile(a, cfg)
	r := Automaton(a, cache)
	r.Merge(Compiled(c))
	r.normalize()
	return c, r
}
