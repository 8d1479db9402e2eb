package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cgi"
	"repro/internal/core"
	"repro/internal/store"
)

func TestParseMode(t *testing.T) {
	cases := map[string]core.Mode{
		"no-cache":    core.NoCache,
		"nocache":     core.NoCache,
		"stand-alone": core.StandAlone,
		"standalone":  core.StandAlone,
		"cooperative": core.Cooperative,
		"coop":        core.Cooperative,
	}
	for in, want := range cases {
		got, err := parseMode(in)
		if err != nil || got != want {
			t.Fatalf("parseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseMode("turbo"); err == nil {
		t.Fatal("parseMode accepted unknown mode")
	}
}

func TestTypeFor(t *testing.T) {
	cases := map[string]string{
		"/a/index.html": "text/html",
		"/a/readme.txt": "text/plain",
		"/a/logo.gif":   "image/gif",
		"/a/photo.jpg":  "image/jpeg",
		"/a/data.bin":   "application/octet-stream",
	}
	for in, want := range cases {
		if got := typeFor(in); got != want {
			t.Fatalf("typeFor(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLoadDocs(t *testing.T) {
	root := t.TempDir()
	os.MkdirAll(filepath.Join(root, "sub"), 0o755)
	os.WriteFile(filepath.Join(root, "index.html"), []byte("<p>root</p>"), 0o644)
	os.WriteFile(filepath.Join(root, "sub", "page.txt"), []byte("nested"), 0o644)

	srv := core.New(core.Config{NodeID: 1, Mode: core.NoCache})
	defer srv.Close()
	if err := loadDocs(srv, root); err != nil {
		t.Fatal(err)
	}
	f, ok := srv.Files().Get("/index.html")
	if !ok || string(f.Body) != "<p>root</p>" || f.ContentType != "text/html" {
		t.Fatalf("index.html = %+v ok=%v", f, ok)
	}
	f, ok = srv.Files().Get("/sub/page.txt")
	if !ok || string(f.Body) != "nested" {
		t.Fatalf("sub/page.txt = %+v ok=%v", f, ok)
	}
}

func TestMountCGI(t *testing.T) {
	srv := core.New(core.Config{NodeID: 1, Mode: core.NoCache})
	defer srv.Close()
	if err := mountCGI(srv, "/cgi-bin/=demo,/real/=/bin/true"); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.CGI().Lookup("/cgi-bin/anything"); !ok {
		t.Fatal("demo mount missing")
	}
	if _, ok := srv.CGI().Lookup("/real/prog"); !ok {
		t.Fatal("exec mount missing")
	}
	if err := mountCGI(srv, "no-equals-sign"); err == nil {
		t.Fatal("bad mount accepted")
	}
	// Empty specs are skipped silently.
	if err := mountCGI(srv, " , "); err != nil {
		t.Fatal(err)
	}

	// The demo mount brings the rw pair loadgen -mix rw drives, with the
	// deps that make an update originate a wave; an executable mounted at
	// one of the pair's paths keeps it.
	if d, _ := srv.CGI().DepsFor("/cgi-bin/report"); len(d.Reads) != 1 || d.Reads[0] != demoResource {
		t.Fatalf("report deps = %+v, want a read of %q", d, demoResource)
	}
	if d, _ := srv.CGI().DepsFor("/cgi-bin/update"); len(d.Writes) != 1 || d.Writes[0] != demoResource {
		t.Fatalf("update deps = %+v, want a write of %q", d, demoResource)
	}
	exe := core.New(core.Config{NodeID: 2, Mode: core.NoCache})
	defer exe.Close()
	if err := mountCGI(exe, "/cgi-bin/update=/bin/true,/cgi-bin/=demo"); err != nil {
		t.Fatal(err)
	}
	p, _ := exe.CGI().Lookup("/cgi-bin/update")
	if _, ok := p.(*cgi.Exec); !ok {
		t.Fatalf("/cgi-bin/update served by %T, want the mounted executable", p)
	}
	if _, ok := exe.CGI().DepsFor("/cgi-bin/update"); ok {
		t.Fatal("demo pair declared deps over a mounted executable")
	}
}

// TestREADMEListsEveryFlag: README's swalad flag table has one row per
// defined flag and no row for a flag that does not exist.
func TestREADMEListsEveryFlag(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]bool)
	for _, line := range strings.Split(string(readme), "\n") {
		rest, ok := strings.CutPrefix(line, "| `-")
		if !ok {
			continue
		}
		name := rest[:strings.IndexAny(rest, " `=")]
		if rows[name] {
			t.Errorf("README has two rows for -%s", name)
		}
		rows[name] = true
	}
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // the test binary's own
		}
		if !rows[f.Name] {
			t.Errorf("flag -%s has no row in README's flag table", f.Name)
		}
		delete(rows, f.Name)
	})
	for name := range rows {
		t.Errorf("README's flag table lists -%s, which swalad does not define", name)
	}
}

// TestOpenCacheColdStart: without persist the segments a previous run left
// are deleted and nothing is recovered, but other files in the directory
// stay; with persist the entries come back.
func TestOpenCacheColdStart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	l, _, err := openCache(dir, true, store.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put("GET /k", "text/plain", []byte("v")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	foreign := []string{"notes.txt", "x.tmp"}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	l, rep, err := openCache(dir, true, store.FsyncNever)
	if err != nil || len(rep.Recovered) != 1 {
		t.Fatalf("warm open: %v, report %+v; want the one entry back", err, rep)
	}
	l.Close()

	l, rep, err = openCache(dir, false, store.FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(rep.Recovered) != 0 || l.Len() != 0 {
		t.Fatalf("cold open recovered %d entries, holds %d; want none", len(rep.Recovered), l.Len())
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("cold open removed %s: %v", name, err)
		}
	}
}
