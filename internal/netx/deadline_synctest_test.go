//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package netx

import (
	"errors"
	"net"
	"testing"
	"testing/synctest"
	"time"
)

// TestDeadlineAtNow: net.Conn says a deadline at the present instant has
// already passed. In a synctest bubble the clock stands still while every
// goroutine is blocked, so a blocked Read whose deadline is set to now must
// time out at once: there is no later instant for it to wait for.
func TestDeadlineAtNow(t *testing.T) {
	synctest.Run(func() {
		c, s := pair()
		defer c.Close()
		defer s.Close()
		errc := make(chan error, 1)
		go func() {
			_, err := c.Read(make([]byte, 1))
			errc <- err
		}()
		synctest.Wait() // the Read is blocked
		c.SetReadDeadline(time.Now())
		var ne net.Error
		if err := <-errc; !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("Read with its deadline at now = %v, want a timeout", err)
		}
	})
}
