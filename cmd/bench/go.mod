// The benchmark is a module of its own so that building it never touches the
// solver's build files; it reaches the solver's internal packages through the
// shared "eul3d/" import-path prefix.
module eul3d/cmd/bench

go 1.22

require eul3d v0.0.0

replace eul3d => ../..
