// The benchmark is a module of its own so that it builds from its own
// build file and stays out of the root module's build, tests and lint.
// Its path sits under the root module's, which is what lets it import
// repro/internal/... and time the layers from outside.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
