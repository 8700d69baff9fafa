// Package wirelock enforces the append-only stability of the repository's
// wire-visible enumerations: the serve failure-Code taxonomy (carried in
// error frames; DESIGN.md §13) and the obs EventKind tags (part of the
// binary event-log format). Both are documented "append new values at the
// end, never renumber or remove" — a convention this analyzer turns into a
// checked invariant by extracting the constants from the typechecked source
// and diffing them against a checked-in golden (cmd/teavet/wirelock.json).
//
// Renumbering or removing a value is a hard finding that no baseline or
// -update absorbs: the golden writer itself refuses to regenerate over a
// removal or renumber. Appending a value is a finding only until `go run
// ./cmd/teavet -update` records it in the golden, which is the intended
// review point for every wire-format extension.
package wirelock

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"sort"

	"github.com/lsc-tea/tea/internal/analysis/driver"
)

// Lock names one wire-stable enumeration: every package-scope constant of
// named type TypeName declared in a package named PkgName.
type Lock struct {
	PkgName  string `json:"package"`
	TypeName string `json:"type"`
}

// DefaultLocks are the repository's wire-stable enumerations.
var DefaultLocks = []Lock{
	{PkgName: "serve", TypeName: "Code"},
	{PkgName: "obs", TypeName: "EventKind"},
}

// Value is one locked constant.
type Value struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Group is the extracted state of one Lock.
type Group struct {
	Lock
	Values []Value `json:"values"`

	pos map[string]token.Pos // constant name -> declaration position
	tok token.Pos            // the type declaration, anchor for removals
}

// Golden is the on-disk shape of the golden file.
type Golden struct {
	Comment string  `json:"comment,omitempty"`
	Groups  []Group `json:"groups"`
}

// New builds the analyzer against a golden file path and lock set (nil
// locks = DefaultLocks). The golden is read at Run time so one analyzer
// value can serve both the repo and test fixtures.
func New(goldenPath string, locks []Lock) *driver.Analyzer {
	if locks == nil {
		locks = DefaultLocks
	}
	return &driver.Analyzer{
		Name: "wirelock",
		Doc:  "diff the wire-stable serve Code and obs EventKind constants against the checked-in golden; renumber/removal is a hard failure, appends update via -update",
		Run: func(pass *driver.Pass) error {
			return run(pass, goldenPath, locks)
		},
	}
}

func run(pass *driver.Pass, goldenPath string, locks []Lock) error {
	groups, err := Extract(pass.Prog, locks)
	if err != nil {
		return err
	}
	for _, g := range groups {
		if len(g.Values) == 0 {
			pass.Report(token.NoPos, "", "lock %s.%s: no constants found; the wire-stable enumeration is missing from the build", g.PkgName, g.TypeName)
		}
	}

	golden, err := ReadGolden(goldenPath)
	if os.IsNotExist(err) {
		pass.Report(token.NoPos, "", "golden %s does not exist; run with -update to create it", goldenPath)
		return nil
	}
	if err != nil {
		return err
	}

	for _, d := range Diff(golden, groups) {
		pass.Report(d.pos, "", "%s", d.msg)
	}
	return nil
}

// delta is one golden/source divergence; append marks the recoverable
// kind (a new value -update may lock), as opposed to removals/renumbers.
type delta struct {
	pos    token.Pos
	msg    string
	append bool
}

// Diff compares the golden against the extracted groups. Every divergence
// is a hard finding; only pure appends are recoverable via -update.
func Diff(golden *Golden, groups []Group) []delta {
	var out []delta
	byLock := make(map[Lock]Group, len(groups))
	for _, g := range groups {
		byLock[g.Lock] = g
	}
	for _, gg := range golden.Groups {
		cur, ok := byLock[gg.Lock]
		if !ok {
			out = append(out, delta{token.NoPos, fmt.Sprintf(
				"lock %s.%s recorded in golden but absent from the source", gg.PkgName, gg.TypeName), false})
			continue
		}
		curBy := make(map[string]int64, len(cur.Values))
		for _, v := range cur.Values {
			curBy[v.Name] = v.Value
		}
		for _, gv := range gg.Values {
			have, ok := curBy[gv.Name]
			if !ok {
				out = append(out, delta{cur.tok, fmt.Sprintf(
					"wire constant %s.%s (=%d) removed; values are append-only and may never be deleted", gg.TypeName, gv.Name, gv.Value), false})
				continue
			}
			if have != gv.Value {
				out = append(out, delta{cur.pos[gv.Name], fmt.Sprintf(
					"wire constant %s.%s renumbered %d -> %d; values are append-only and may never change", gg.TypeName, gv.Name, gv.Value, have), false})
			}
		}
		goldenBy := make(map[string]bool, len(gg.Values))
		for _, v := range gg.Values {
			goldenBy[v.Name] = true
		}
		for _, v := range cur.Values {
			if !goldenBy[v.Name] {
				out = append(out, delta{cur.pos[v.Name], fmt.Sprintf(
					"wire constant %s.%s (=%d) not in golden; run -update to lock the appended value", gg.TypeName, v.Name, v.Value), true})
			}
		}
	}
	byGolden := make(map[Lock]bool, len(golden.Groups))
	for _, gg := range golden.Groups {
		byGolden[gg.Lock] = true
	}
	for _, g := range groups {
		if !byGolden[g.Lock] && len(g.Values) > 0 {
			out = append(out, delta{g.tok, fmt.Sprintf(
				"lock %s.%s not in golden; run -update to lock it", g.PkgName, g.TypeName), true})
		}
	}
	return out
}

// Extract pulls the locked enumerations out of the typechecked program,
// one Group per Lock in order, values sorted by numeric value then name.
func Extract(prog *driver.Program, locks []Lock) ([]Group, error) {
	groups := make([]Group, len(locks))
	for i, l := range locks {
		groups[i] = Group{Lock: l, pos: make(map[string]token.Pos)}
	}
	for _, p := range prog.Packages {
		for gi := range groups {
			g := &groups[gi]
			if p.Name != g.PkgName {
				continue
			}
			tobj, ok := p.Pkg.Scope().Lookup(g.TypeName).(*types.TypeName)
			if !ok {
				continue
			}
			g.tok = tobj.Pos()
			scope := p.Pkg.Scope()
			for _, name := range scope.Names() {
				c, ok := scope.Lookup(name).(*types.Const)
				if !ok || c.Type() != tobj.Type() {
					continue
				}
				v, ok := constant.Int64Val(c.Val())
				if !ok {
					return nil, fmt.Errorf("wirelock: constant %s.%s is not integral", g.PkgName, name)
				}
				g.Values = append(g.Values, Value{Name: name, Value: v})
				g.pos[name] = c.Pos()
			}
			sort.Slice(g.Values, func(a, b int) bool {
				if g.Values[a].Value != g.Values[b].Value {
					return g.Values[a].Value < g.Values[b].Value
				}
				return g.Values[a].Name < g.Values[b].Name
			})
		}
	}
	return groups, nil
}

// ReadGolden loads a golden file.
func ReadGolden(path string) (*Golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g Golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("wirelock: %s: %w", path, err)
	}
	return &g, nil
}

// Update rewrites the golden from the extracted groups — but refuses to
// absorb a removal or renumber of an already-locked value: -update is the
// escape hatch for appends only. A missing golden is created. It reports
// whether the file changed; a golden already equal to the groups is left
// untouched.
func Update(path string, prog *driver.Program, locks []Lock) (bool, error) {
	if locks == nil {
		locks = DefaultLocks
	}
	groups, err := Extract(prog, locks)
	if err != nil {
		return false, err
	}
	if golden, err := ReadGolden(path); err == nil {
		for _, d := range Diff(golden, groups) {
			if !d.append {
				return false, fmt.Errorf("wirelock: refusing -update: %s", d.msg)
			}
		}
	} else if !os.IsNotExist(err) {
		return false, err
	}
	out := Golden{
		Comment: "wire-stable enumerations; append-only, regenerated by `go run ./cmd/teavet -update`",
		Groups:  groups,
	}
	b, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return false, err
	}
	b = append(b, '\n')
	if old, err := os.ReadFile(path); err == nil && bytes.Equal(old, b) {
		return false, nil
	}
	return true, os.WriteFile(path, b, 0o644)
}
