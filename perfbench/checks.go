package main

import (
	"errors"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"

	"repro/internal/chaos"
	"repro/internal/sllocal"
	"repro/internal/slremote"
	"repro/internal/wire"
)

// Failure classes. Every failed op lands in exactly one.
const (
	failDenied    = "denied"    // the server or SL-Local refused a lease
	failServer    = "server"    // the server reported another failure
	failTimeout   = "timeout"   // a deadline passed with no reply
	failTransport = "transport" // the channel or connection failed
	failWrong     = "wrong"     // the op returned, but with a wrong result
)

var failClasses = [...]string{failDenied, failServer, failTimeout, failTransport, failWrong}

func classIndex(c string) int {
	for i, name := range failClasses {
		if name == c {
			return i
		}
	}
	panic("unknown failure class " + c)
}

// errWrong marks an op whose call succeeded but whose result the
// benchmark's own check rejected.
var errWrong = errors.New("wrong result")

// localRefusal is SL-Local's own refusal: no renewal error, but no units
// granted either. SL-Manager may wrap it; anything after the quoted
// license means an underlying error.
var localRefusal = regexp.MustCompile(regexp.QuoteMeta(sllocal.ErrLeaseDenied.Error()) + `: "[^"]*"$`)

// classify sorts an op error into a failure class. SL-Local and the wire
// client flatten remote errors into their message, so the tests read the
// text: a denial is a refusal by Algorithm 1 or by SL-Local, and any other
// error the server reports — a drain, a WAL or fsync failure, an unknown
// SLID — is a server failure.
func classify(err error) string {
	msg := err.Error()
	switch {
	case errors.Is(err, errWrong):
		return failWrong
	case errors.Is(err, os.ErrDeadlineExceeded) || strings.Contains(msg, os.ErrDeadlineExceeded.Error()):
		return failTimeout
	case strings.Contains(msg, slremote.ErrLicenseExhausted.Error()),
		strings.Contains(msg, slremote.ErrLicenseRevoked.Error()),
		localRefusal.MatchString(msg):
		return failDenied
	case strings.Contains(msg, wire.ErrRemote.Error()):
		return failServer
	default:
		return failTransport
	}
}

// ledger is the client side's record of every grant it received: units
// per (SLID, license), renewals, and the units forfeited by crashes. A
// renewal that failed other than by a refusal is in doubt: the server may
// have granted it, so it loosens the comparison for its pair instead of
// failing the check.
type ledger struct {
	mu       sync.Mutex
	held     map[string]map[string]int64
	lost     map[string]int64
	inDoubt  map[string]map[string]int
	doubtful map[string]bool // SLIDs whose whole balance is in doubt
	renewals int64
	doubts   int64
}

func newLedger() *ledger {
	return &ledger{
		held:     make(map[string]map[string]int64),
		lost:     make(map[string]int64),
		inDoubt:  make(map[string]map[string]int),
		doubtful: make(map[string]bool),
	}
}

// renewed records the outcome of one renewal as the client saw it.
func (l *ledger) renewed(slid, license string, units int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		// Only a refusal says for certain that nothing was granted.
		if classify(err) != failDenied {
			if l.inDoubt[slid] == nil {
				l.inDoubt[slid] = make(map[string]int)
			}
			l.inDoubt[slid][license]++
			l.doubts++
		}
		return
	}
	if l.held[slid] == nil {
		l.held[slid] = make(map[string]int64)
	}
	l.held[slid][license] += units
	l.renewals++
}

// forfeit records that the server forfeits everything slid holds: it
// returned to init after a crash, with no escrowed root key.
func (l *ledger) forfeit(slid string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for lic, units := range l.held[slid] {
		l.lost[lic] += units
	}
	delete(l.held, slid)
}

// doubt marks slid's balance as unknown: a session step failed midway,
// so the client cannot say what the server recorded.
func (l *ledger) doubt(slid string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.doubtful[slid] = true
}

// compare checks the server's outstanding balances, forfeits and renewal
// count against the ledger.
func (l *ledger) compare(st slremote.State) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	slids := make([]string, 0, len(st.Clients))
	for slid := range st.Clients {
		slids = append(slids, slid)
	}
	sort.Strings(slids)
	anyDoubt := len(l.doubtful) > 0
	for _, slid := range slids {
		if l.doubtful[slid] {
			continue
		}
		srv := st.Clients[slid].Outstanding
		for lic, want := range l.held[slid] {
			got := srv[lic]
			if n := l.inDoubt[slid][lic]; n > 0 {
				if got < want {
					return fmt.Errorf("%s/%s: server holds %d units, client saw %d granted", slid, lic, got, want)
				}
				continue
			}
			if got != want {
				return fmt.Errorf("%s/%s: server holds %d units, client saw %d granted", slid, lic, got, want)
			}
		}
		for lic, got := range srv {
			if _, ok := l.held[slid][lic]; !ok && got != 0 && l.inDoubt[slid][lic] == 0 {
				return fmt.Errorf("%s/%s: server holds %d units the client never saw granted", slid, lic, got)
			}
		}
	}
	for slid := range l.held {
		if _, ok := st.Clients[slid]; !ok {
			return fmt.Errorf("client %s holds grants the server does not know", slid)
		}
	}
	if !anyDoubt {
		for lic, want := range l.lost {
			if got := st.Licenses[lic].Lost; got != want {
				return fmt.Errorf("license %s: server forfeited %d units, client crashes account for %d", lic, got, want)
			}
		}
	}
	if extra := st.Stats.Renewals - l.renewals; extra < 0 || (extra > l.doubts && !anyDoubt) {
		return fmt.Errorf("server granted %d renewals, client saw %d (%d in doubt)", st.Stats.Renewals, l.renewals, l.doubts)
	}
	return nil
}

// checkServerState runs the ledger-independent invariants on a drained
// server: lease conservation and no denials.
func checkServerState(st slremote.State) error {
	if err := chaos.CheckConservation(st); err != nil {
		return fmt.Errorf("lease conservation: %w", err)
	}
	if st.Stats.RenewalsDenied != 0 {
		return fmt.Errorf("server denied %d renewals: the workload is sized so that none is denied", st.Stats.RenewalsDenied)
	}
	return nil
}
