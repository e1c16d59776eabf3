package forkjoin

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// region is a short region's work: about a microsecond of arithmetic per
// worker, the size of a coarse level's colored group.
func region(sink []float64) func(int) {
	return func(w int) {
		x := float64(w)
		for i := 0; i < 1000; i++ {
			x = x*0.999 + 1
		}
		sink[w*8] = x
	}
}

// BenchmarkForkContended is ns per short region of a 2-worker pool, alone
// ("idle") and beside other work on the processors. In "contended" a
// second 2-worker pool forks short regions, as a second pooled job does,
// and the pools' busy count sees its goroutines. In "contended-uncounted" a
// goroutine computes outside any pool and never blocks, as a mesh build or
// an encoder does, and the count does not see it. Run it at -cpu 2: the
// pool's goroutines then want a processor that is not free, and a worker
// or joiner that polls for a goroutine without one burns its whole poll.
// The file uses only New, Fork and Shutdown, so it runs unchanged against
// any version of the pool.
func BenchmarkForkContended(b *testing.B) {
	for _, c := range []struct {
		name      string
		neighbour func(stop *atomic.Bool)
	}{
		{"idle", nil},
		{"contended", func(stop *atomic.Bool) {
			q := New(2)
			defer q.Shutdown()
			work := region(make([]float64, 16))
			for !stop.Load() {
				q.Fork(work, 2)
			}
		}},
		{"contended-uncounted", func(stop *atomic.Bool) {
			work := region(make([]float64, 8))
			for !stop.Load() {
				work(0)
			}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			p := New(2)
			defer p.Shutdown()
			fn := region(make([]float64, 16))
			var stop atomic.Bool
			var wg sync.WaitGroup
			if c.neighbour != nil {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.neighbour(&stop)
				}()
			}
			for i := 0; i < 100; i++ {
				p.Fork(fn, 2)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Fork(fn, 2)
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
		})
	}
}

// BenchmarkForkAfterPause is the region-ns of a 2-worker pool's region that
// follows 400 µs of serial work on the caller, longer than PollFor: the
// worker has parked, so Fork wakes it through its channel, and the join is
// the parked kind. ns/op includes the pause; region-ns is the Fork alone.
// Run it at -cpu 2.
func BenchmarkForkAfterPause(b *testing.B) {
	p := New(2)
	defer p.Shutdown()
	fn := region(make([]float64, 16))
	var forking time.Duration
	for i := 0; i < b.N; i++ {
		for start := time.Now(); time.Since(start) < 400*time.Microsecond; {
		}
		t0 := time.Now()
		p.Fork(fn, 2)
		forking += time.Since(t0)
	}
	b.ReportMetric(float64(forking.Nanoseconds())/float64(b.N), "region-ns")
}

// BenchmarkForkNeighbour is what a pool that forks back to back leaves to
// a goroutine outside it, as a request handler beside a pooled job: the
// neighbour computes 30 µs, hands off to a helper that computes 10 µs, and
// sleeps 200 µs, while a 2-worker pool runs 20 µs regions. ns/op is the
// neighbour's round, which waits for a processor after every sleep and
// hand-off; kregions/s is the pool's rate. Run it at -cpu 2.
func BenchmarkForkNeighbour(b *testing.B) {
	spin := func(d time.Duration) {
		for start := time.Now(); time.Since(start) < d; {
		}
	}
	p := New(2)
	defer p.Shutdown()
	var stop atomic.Bool
	var regions atomic.Int64
	forking := make(chan struct{})
	go func() {
		defer close(forking)
		fn := func(int) { spin(20 * time.Microsecond) }
		for !stop.Load() {
			p.Fork(fn, 2)
			regions.Add(1)
		}
	}()
	req, rep := make(chan struct{}), make(chan struct{})
	go func() {
		for range req {
			spin(10 * time.Microsecond)
			rep <- struct{}{}
		}
	}()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		spin(30 * time.Microsecond)
		req <- struct{}{}
		<-rep
		time.Sleep(200 * time.Microsecond)
	}
	elapsed := time.Since(start)
	stop.Store(true)
	<-forking
	close(req)
	b.ReportMetric(float64(regions.Load())/elapsed.Seconds()/1e3, "kregions/s")
}

// BenchmarkForkNetNeighbour is what a pool that forks back to back leaves
// to a connection, as a daemon's requests beside a pooled job: a loopback
// TCP round trip to an echo goroutine that computes 10 µs, every 200 µs,
// while a 2-worker pool runs 20 µs regions. rtt-µs is the round trip. The
// runtime polls the network only from a processor that has run out of
// work, or every 10 ms. Run it at -cpu 2.
func BenchmarkForkNetNeighbour(b *testing.B) {
	spin := func(d time.Duration) {
		for start := time.Now(); time.Since(start) < d; {
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 1)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
			spin(10 * time.Microsecond)
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	p := New(2)
	defer p.Shutdown()
	var stop atomic.Bool
	forking := make(chan struct{})
	go func() {
		defer close(forking)
		fn := func(int) { spin(20 * time.Microsecond) }
		for !stop.Load() {
			p.Fork(fn, 2)
		}
	}()
	defer func() { // before Shutdown
		stop.Store(true)
		<-forking
	}()
	buf := make([]byte, 1)
	var rtt time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := c.Write(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Read(buf); err != nil {
			b.Fatal(err)
		}
		rtt += time.Since(start)
		time.Sleep(200 * time.Microsecond)
	}
	b.ReportMetric(float64(rtt.Microseconds())/float64(b.N), "rtt-µs")
}
