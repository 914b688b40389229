package main

import (
	"math"
	"os"
	"sync"
	"time"
)

// speedometer measures how fast the machine is running while a timed
// part goes on, so that the timed part's numbers can be stated at a
// reference speed. The sandbox shares its host: over a minute or ten a
// neighbour can take a quarter of every number on every workload, which
// is the whole of the widest bound, and no run length or median inside
// one run averages that out. What a neighbour takes it takes from the
// memory system and from kernel entry and exit, so every sliceEvery the
// speedometer times one short slice of each on whichever core the
// scheduler gives it: chaseHops dependent loads through a 16 MB cycle,
// and pipePairs one-byte write+read pairs on a pipe it owns. Over the
// four workloads the geometric mean of the two rates moved with
// throughput at an elasticity of about one (r 0.6 to 0.9), and dividing
// by it halved both the run-to-run spread and the range; an ALU-only
// kernel did not track at all. README.md, "Reference speed", has the
// numbers.
type speedometer struct {
	cycle  []uint32 // one cycle through every word, in shuffled order
	pr, pw *os.File

	stop        chan struct{}
	wg          sync.WaitGroup
	chase, pipe []float64 // operations per second, one entry per slice
	at          uint32    // where the chase stands: kept so the loads cannot be optimized away
}

const (
	chaseWords = 1 << 22 // 16 MB: four times a core's L2, so a hop is a trip to the shared cache
	chaseHops  = 4000    // ≈0.7 ms
	pipePairs  = 200     // ≈0.13 ms
	sliceEvery = 25 * time.Millisecond

	// The two rates on the sandbox the benchmark was written on, with the
	// host quiet. They only fix the scale: speed 1 is that machine.
	refChasePerS = 5.46e6
	refPipePerS  = 1.56e6
)

func newSpeedometer() (*speedometer, error) {
	cycle := make([]uint32, chaseWords)
	for i := range cycle {
		cycle[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := chaseWords - 1; i > 0; i-- { // Sattolo's shuffle: a single cycle
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		cycle[i], cycle[j] = cycle[j], cycle[i]
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	return &speedometer{cycle: cycle, pr: pr, pw: pw}, nil
}

func (s *speedometer) close() {
	s.pr.Close()
	s.pw.Close()
}

// start begins sampling; finish ends it. A speedometer can be started
// again after finish.
func (s *speedometer) start() {
	s.stop = make(chan struct{})
	s.chase, s.pipe = s.chase[:0], s.pipe[:0]
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(sliceEvery)
		defer tick.Stop()
		at := s.at
		one := []byte{1}
		for {
			select {
			case <-s.stop:
				s.at = at
				return
			case <-tick.C:
			}
			t0 := time.Now()
			for k := 0; k < chaseHops; k++ {
				at = s.cycle[at]
			}
			t1 := time.Now()
			for k := 0; k < pipePairs; k++ {
				// A pipe the speedometer owns, one byte in and the same byte
				// out: neither call can block or come up short.
				s.pw.Write(one)
				s.pr.Read(one)
			}
			t2 := time.Now()
			s.chase = append(s.chase, chaseHops/t1.Sub(t0).Seconds())
			s.pipe = append(s.pipe, pipePairs/t2.Sub(t1).Seconds())
		}
	}()
}

// finish stops sampling and returns the machine's speed over the
// sampled time: the geometric mean of the two kernels' median rates,
// each as a share of its reference. A part too short for one slice
// reports 1.
func (s *speedometer) finish() float64 {
	close(s.stop)
	s.wg.Wait()
	if len(s.chase) == 0 {
		return 1
	}
	return math.Sqrt(median(s.chase) / refChasePerS * median(s.pipe) / refPipePerS)
}
