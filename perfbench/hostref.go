package main

import "sort"

// On a shared host the same CPU work takes up to 1.7 times as long, for
// seconds to minutes at a time, while other tenants load the machine; the
// process's CPU time grows with it (it is not time stolen from the
// process, so it cannot be subtracted). A fixed reference kernel slows
// down by a similar factor (about 1.5), so every item's CPU time is
// scaled by the kernel's CPU time measured right before and right after
// the item:
//
//	scaled = cpu × refNominal / mean(ref before, ref after)
//
// which is the item's CPU time on a host where the kernel takes
// refNominal. The kernel uses only the standard library, so a change to
// the program under test does not move it.

// refNominal is the reference kernel's CPU time, in seconds, that scaled
// times are expressed at. It only fixes the scale; the kernel takes about
// this long on a loaded 2.0 GHz Xeon VM.
const refNominal = 0.0015

// refLen sizes the reference kernel's data: a pointer ring and a key set
// of this many entries.
const refLen = 1 << 13

type refNode struct {
	next *refNode
	val  int64
}

// refData is the reference kernel's input, built once so that the kernel
// itself allocates nothing and never starts a collection.
var refData = func() (d struct {
	ring []refNode
	keys []int
	buf  []int
	m    map[int]int
}) {
	d.ring = make([]refNode, refLen)
	for i := range d.ring {
		d.ring[i] = refNode{next: &d.ring[(i*4099+17)%refLen], val: int64(i)}
	}
	d.keys = make([]int, refLen)
	d.m = make(map[int]int, refLen)
	for i := range d.keys {
		d.keys[i] = (i * 104729) % 65521
		d.m[d.keys[i]] = i
	}
	d.buf = make([]int, refLen)
	return d
}()

var refSink int64

// refKernel chases pointers around the ring, sorts a copy of the keys and
// looks every key up in a map: memory latency, branches and hashing, the
// mix an exploration spends its time on.
func refKernel() {
	d := &refData
	var s int64
	p := &d.ring[0]
	for i := 0; i < 8*refLen; i++ {
		s += p.val
		p = p.next
	}
	copy(d.buf, d.keys)
	sort.Ints(d.buf)
	for _, k := range d.buf {
		s += int64(d.m[k])
	}
	refSink += s
}

// refTime runs the reference kernel twice and returns the CPU seconds of
// the second run, which finds its data in the caches whatever ran before.
func refTime() float64 {
	refKernel()
	start := cpuTime()
	refKernel()
	return (cpuTime() - start).Seconds()
}
