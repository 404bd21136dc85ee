package main

import (
	"runtime/metrics"
	"time"
)

// startHeapSampler polls the in-use heap every 50 ms until the returned
// function is called, which stops the sampling goroutine, waits for it
// and returns the peak in bytes. runtime/metrics reads do not stop the
// world, so the sampler does not perturb the measured loop the way
// runtime.ReadMemStats would.
func startHeapSampler() (peak func() uint64) {
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	stop, done := make(chan struct{}), make(chan struct{})
	var max uint64
	go func() {
		defer close(done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			if v := samples[0].Value.Uint64() + samples[1].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		<-done
		return max
	}
}
