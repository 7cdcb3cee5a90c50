package obs

import (
	"runtime/debug"
	"sync"

	"repro/wire"
)

var buildOnce = sync.OnceValue(func() wire.VersionResponse {
	v := wire.VersionResponse{
		Version:   "unknown",
		Revision:  "unknown",
		GoVersion: "unknown",
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	v.GoVersion = bi.GoVersion
	if bi.Main.Version != "" {
		v.Version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			v.Revision = s.Value
		case "vcs.modified":
			v.Dirty = s.Value == "true"
		}
	}
	return v
})

// Build returns the running binary's identity — module version, VCS
// revision, Go toolchain — from the embedded build info. Fields the
// build did not stamp read "unknown". The result also feeds the
// <prefix>_build_info metric and the server's startup log line, so bench
// JSON and fleet logs are attributable to an exact build.
func Build() wire.VersionResponse { return buildOnce() }

// RegisterBuildInfo declares the constant <prefix>_build_info metric
// (value 1, build identity as labels) on r — the standard Prometheus
// idiom for joining series against the build that produced them.
func RegisterBuildInfo(r *Registry, prefix string) {
	b := Build()
	r.DeclareSampled(prefix+"_build_info",
		"Build identity of the running binary; constant 1.", KindGaugeFamily)
	r.Sampler(func(emit EmitFunc) {
		emit(prefix+"_build_info", []Label{
			{Name: "version", Value: b.Version},
			{Name: "revision", Value: b.Revision},
			{Name: "go_version", Value: b.GoVersion},
		}, 1)
	})
}
