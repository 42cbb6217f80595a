//go:build race

package mapreduce

// raceEnabled reports a -race build, where sync.Pool deliberately drops
// pooled items at random, so pooling is not observable.
const raceEnabled = true
