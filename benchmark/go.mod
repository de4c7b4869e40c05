// The benchmark is a module of its own so that it builds from the checkout's
// sources with its own build file; the replace points at the repository root,
// whose internal packages an ewh/... import path may reach.
module ewh/benchmark

go 1.24

require ewh v0.0.0

replace ewh => ../
