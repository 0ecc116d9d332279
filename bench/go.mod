// The benchmark is a module of its own because the benchmark contract asks
// for one: a benchmark that has to be compiled is a package in its own
// directory with its own build file. The cost is that the repository's tier-1
// `go build ./... && go test ./...` does not reach this directory; its tests,
// the smoke test included, run with `cd bench && go test ./...`. It reaches
// the system through built binaries, pkg/client and the root facade only;
// bench/probes (build tag benchprobes) is the one place that imports
// hammerhead/internal/*.
module hammerhead/bench

go 1.24

require hammerhead v0.0.0

replace hammerhead => ../
