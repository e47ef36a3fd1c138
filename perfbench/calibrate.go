package main

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The benchmark runs on shared virtual machines whose speed drifts by
// 20–40% within minutes (other tenants, hypervisor steal). A fixed op list
// alone cannot tell that drift from a change in the program, so every run
// also times a reference kernel between its ops and reports its timings
// scaled to the reference speed (see speed).
//
// The kernel is a fixed, standard-library-only loop shaped like the
// attack's hot path: word XOR, popcount and dependent table lookups over a
// 2 MiB buffer. It shares no code with the program, so a change to the
// program never moves it.
var (
	refBuf   = make([]uint64, 1<<18)
	refTable [4096]uint64
	refSink  atomic.Uint64 // keeps the kernel's result live
)

// refNominalS is the kernel's time on the reference machine (a 2-vCPU
// Xeon VM, go1.24) when it is quiet: the scale speed-normalized timings are
// expressed in.
const refNominalS = 1.4e-3

func init() {
	x := uint64(0x243F6A8885A308D3)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range refBuf {
		refBuf[i] = next()
	}
	for i := range refTable {
		refTable[i] = next()
	}
}

// refKernel runs the kernel once and returns its wall time in seconds.
func refKernel() float64 {
	t0 := time.Now()
	var acc uint64
	x := uint64(0x9E3779B97F4A7C15)
	for i, w := range refBuf {
		v := w ^ x
		acc += uint64(bits.OnesCount64(v))
		x = refTable[(v>>20)&4095] ^ (x*0x9E3779B97F4A7C15 + uint64(i))
	}
	refSink.Add(acc)
	return time.Since(t0).Seconds()
}

// calibrate runs the kernel n times and returns the samples.
func calibrate(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = refKernel()
	}
	return out
}

// speed is how slow the machine ran relative to the reference: the median
// kernel sample over refNominalS (1 when no sample was taken). A timing
// divided by speed is that timing at reference speed. The median, not the
// mean, so that kernel samples which collided with the program's own
// threads (on daemon_fleet the clients calibrate while the daemon works)
// do not count.
func speed(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return median(samples) / refNominalS
}
