package clock

import (
	"sync"
	"testing"
	"time"
)

func TestVirtualNow(t *testing.T) {
	start := time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)
	v := NewVirtual(start)
	if got := v.Now(); !got.Equal(start) {
		t.Fatalf("Now() = %v, want %v", got, start)
	}
}

func TestVirtualSleepAdvances(t *testing.T) {
	start := time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)
	v := NewVirtual(start)
	v.Sleep(900 * time.Second)
	want := start.Add(900 * time.Second)
	if got := v.Now(); !got.Equal(want) {
		t.Fatalf("after Sleep: Now() = %v, want %v", got, want)
	}
}

func TestVirtualSleepIgnoresNegative(t *testing.T) {
	start := time.Date(2023, 8, 21, 9, 0, 0, 0, time.UTC)
	v := NewVirtual(start)
	v.Sleep(-time.Hour)
	if got := v.Now(); !got.Equal(start) {
		t.Fatalf("negative Sleep moved clock to %v", got)
	}
}

func TestVirtualSet(t *testing.T) {
	v := NewVirtual(time.Date(2023, 12, 1, 0, 0, 0, 0, time.UTC))
	earlier := time.Date(2023, 9, 14, 8, 30, 0, 0, time.UTC)
	v.Set(earlier)
	if got := v.Now(); !got.Equal(earlier) {
		t.Fatalf("Set: Now() = %v, want %v", got, earlier)
	}
}

func TestVirtualConcurrentSleep(t *testing.T) {
	start := time.Date(2023, 8, 21, 0, 0, 0, 0, time.UTC)
	v := NewVirtual(start)
	const goroutines = 16
	const perGoroutine = 100
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perGoroutine; j++ {
				v.Sleep(time.Second)
			}
		}()
	}
	wg.Wait()
	want := start.Add(goroutines * perGoroutine * time.Second)
	if got := v.Now(); !got.Equal(want) {
		t.Fatalf("concurrent Sleep: Now() = %v, want %v", got, want)
	}
}

func TestRealClockMonotonicEnough(t *testing.T) {
	var r Real
	a := r.Now()
	r.Sleep(time.Millisecond)
	b := r.Now()
	if b.Before(a) {
		t.Fatalf("real clock went backwards: %v then %v", a, b)
	}
}
