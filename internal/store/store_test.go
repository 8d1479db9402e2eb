package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// backends returns a fresh instance of every Store implementation: the
// in-memory map and the on-disk log.
func backends(t *testing.T) map[string]Store {
	t.Helper()
	l, _ := newTestLog(t)
	return map[string]Store{
		"memory": NewMemory(),
		"disk":   l,
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if err := s.Put("GET /q?a=1", "text/html", []byte("<b>result</b>")); err != nil {
				t.Fatal(err)
			}
			ct, body, err := s.Get("GET /q?a=1")
			if err != nil {
				t.Fatal(err)
			}
			if ct != "text/html" || string(body) != "<b>result</b>" {
				t.Fatalf("got (%q, %q)", ct, body)
			}
		})
	}
}

func TestGetMissing(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if _, _, err := s.Get("absent"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestOverwrite(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			s.Put("k", "text/plain", []byte("v1"))
			s.Put("k", "text/html", []byte("v2"))
			ct, body, err := s.Get("k")
			if err != nil {
				t.Fatal(err)
			}
			if ct != "text/html" || string(body) != "v2" {
				t.Fatalf("got (%q, %q), want overwrite", ct, body)
			}
			if s.Len() != 1 {
				t.Fatalf("Len = %d, want 1", s.Len())
			}
		})
	}
}

func TestDelete(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			s.Put("k", "t", []byte("v"))
			if err := s.Delete("k"); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("err = %v, want ErrNotFound after delete", err)
			}
			if err := s.Delete("k"); err != nil {
				t.Fatalf("double delete: %v", err)
			}
			if s.Len() != 0 {
				t.Fatalf("Len = %d, want 0", s.Len())
			}
		})
	}
}

func TestEmptyBody(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			s.Put("k", "text/plain", nil)
			ct, body, err := s.Get("k")
			if err != nil {
				t.Fatal(err)
			}
			if ct != "text/plain" || len(body) != 0 {
				t.Fatalf("got (%q, %q)", ct, body)
			}
		})
	}
}

func TestBinaryBodyWithNewlines(t *testing.T) {
	raw := []byte("line1\nline2\n\x00\xffbinary")
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			s.Put("k", "application/octet-stream", raw)
			_, body, err := s.Get("k")
			if err != nil {
				t.Fatal(err)
			}
			if string(body) != string(raw) {
				t.Fatalf("body = %q, want %q", body, raw)
			}
		})
	}
}

func TestGetReturnsCopy(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			s.Put("k", "t", []byte("abc"))
			_, body, _ := s.Get("k")
			body[0] = 'X'
			_, again, _ := s.Get("k")
			if string(again) != "abc" {
				t.Fatal("Get must return an independent copy")
			}
		})
	}
}

func TestPutCopiesInput(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			src := []byte("abc")
			s.Put("k", "t", src)
			src[0] = 'X'
			_, body, _ := s.Get("k")
			if string(body) != "abc" {
				t.Fatal("Put must not alias the caller's slice")
			}
		})
	}
}

func TestConcurrentAccess(t *testing.T) {
	for name, s := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						key := fmt.Sprintf("k%d-%d", w, i%10)
						s.Put(key, "t", []byte(key))
						if _, body, err := s.Get(key); err == nil && string(body) != key {
							t.Errorf("corrupt read: %q", body)
						}
						if i%7 == 0 {
							s.Delete(key)
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

func TestRoundTripProperty(t *testing.T) {
	for name, s := range backends(t) {
		defer s.Close()
		f := func(keyRaw []byte, body []byte) bool {
			key := "k" + fmt.Sprintf("%x", keyRaw)
			if err := s.Put(key, "ct", body); err != nil {
				return false
			}
			ct, got, err := s.Get(key)
			if err != nil || ct != "ct" {
				return false
			}
			if len(got) != len(body) {
				return false
			}
			for i := range got {
				if got[i] != body[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
