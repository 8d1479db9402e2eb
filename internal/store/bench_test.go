package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

func BenchmarkMemoryPutGet(b *testing.B) {
	s := NewMemory()
	defer s.Close()
	body := make([]byte, 4096)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%d", i%100)
		if err := s.Put(key, "text/html", body); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Get(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogGet2k and BenchmarkLogGet32k measure Log.Get at the two body
// sizes of the benchmark's local_hit workload: one ReadAt through the
// segment's open handle, CRC and key verified, body returned uncopied.
func BenchmarkLogGet2k(b *testing.B)  { benchLogGet(b, 2<<10) }
func BenchmarkLogGet32k(b *testing.B) { benchLogGet(b, 32<<10) }

func benchLogGet(b *testing.B, size int) {
	s, _, err := OpenLog(filepath.Join(b.TempDir(), "cache"), LogOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	benchGetHot(b, s, size)
}

func benchGetHot(b *testing.B, s Store, size int) {
	b.Helper()
	body := make([]byte, size)
	const hotKeys = 16
	for i := 0; i < hotKeys; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), "text/html", body); err != nil {
			b.Fatal(err)
		}
	}
	keys := make([]string, hotKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Get(keys[i%hotKeys]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogChurn2k is the store's share of a miss into a full cache: one
// fresh 2 KiB entry in, the oldest one out, the cleaner keeping up behind.
func BenchmarkLogChurn2k(b *testing.B) {
	benchLogWrites(b, func(s *Log, i, keys int, body []byte) error {
		if err := s.Put(fmt.Sprintf("k%d", keys+i), "text/html", body); err != nil {
			return err
		}
		return s.Delete(fmt.Sprintf("k%d", i))
	})
}

// BenchmarkLogOverwrite2k overwrites uniformly drawn keys of a full cache, so
// every segment the cleaner retires still holds live records to move.
func BenchmarkLogOverwrite2k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	benchLogWrites(b, func(s *Log, i, keys int, body []byte) error {
		return s.Put(fmt.Sprintf("k%d", rng.Intn(keys)), "text/html", body)
	})
}

// benchLogWrites times op against a log store holding 4096 entries of 2 KiB
// and reports the space amplification the run ends with.
func benchLogWrites(b *testing.B, op func(s *Log, i, keys int, body []byte) error) {
	const keys = 4096
	s, _, err := OpenLog(filepath.Join(b.TempDir(), "cache"), LogOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	body := make([]byte, 2<<10)
	for i := 0; i < keys; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), "text/html", body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(s, i, keys, body); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s.compactWG.Wait()
	s.mu.RLock()
	b.ReportMetric(float64(s.totalBytes)/float64(s.totalBytes-s.deadBytes), "space_amp")
	s.mu.RUnlock()
}
