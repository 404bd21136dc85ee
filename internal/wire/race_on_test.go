//go:build race

package wire

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// what is put back on purpose, so pooled-byte ceilings do not apply.
const raceEnabled = true
