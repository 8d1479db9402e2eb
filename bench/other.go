//go:build !linux

package main

import (
	"fmt"
	"os"
)

func main() {
	fmt.Fprintln(os.Stderr, "bench: Linux only: it pins CPUs with sched_setaffinity, reads /proc/<pid>/{stat,status,io} and paces arrivals with nanosleep")
	os.Exit(2)
}
