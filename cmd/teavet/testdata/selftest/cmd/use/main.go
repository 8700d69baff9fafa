// Command use refers to every exported name of the fixture except the two
// unused must flag.
package main

import (
	"selftest/internal/core"
	"selftest/obs"
	"selftest/serve"
)

func main() {
	core.Kernel(1)
	var m core.Mixed
	m.Bump()
	_ = m.Read()
	core.Reset(0)
	_ = core.RunConfig{Steps: 1}
	_, _ = obs.EvEnter, obs.EvExit
	_, _ = serve.CodeOK, serve.CodeProto
}
