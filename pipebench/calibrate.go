package main

import (
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The calibration kernel is fixed work, independent of the repository's
// code, that a run times between iterations. On a shared host the speed a
// run gets drifts by a third within minutes, as neighbours come and go on
// the caches and memory the pipeline leans on. The kernel slows with the
// pipeline, so a run reports its iteration times divided by the kernel's,
// in calibration units: a change to the pipeline moves those ratios, a
// change of neighbours far less.

// calReference is the kernel's median time in seconds on the host the
// benchmark was written on, a 2-vCPU KVM guest of a Xeon (Sapphire
// Rapids) on a quiet shared host. A run reports its set-up in seconds at
// that speed: its set-up time times calReference over its kernel time.
const calReference = 0.15

// calibrate runs the kernel on a freshly collected heap and times it.
func calibrate() time.Duration { return timeIteration(calMaps).wall }

// calMaps fills a map with 200,000 pseudo-random string keys, looks each
// up and sorts them: allocation, hashing, map probes and string
// comparisons over tens of megabytes, as in the pipeline.
func calMaps() {
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 200_000)
	index := make(map[string]int)
	for i := range keys {
		keys[i] = strconv.FormatInt(rng.Int63(), 36)
		index[keys[i]] = i
	}
	sum := 0
	for _, k := range keys {
		sum += index[k]
	}
	sort.Strings(keys)
	runtime.KeepAlive(sum)
}
