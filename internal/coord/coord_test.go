package coord

//neat:allow-file realclock -- real-deadline liveness polls waiting on session expiry

import (
	"testing"
	"time"

	"neat/internal/clock"
	"neat/internal/netsim"
	"neat/internal/transport"
)

func service(t *testing.T, opts Options) (*netsim.Network, *Service) {
	t.Helper()
	n := netsim.New(netsim.Options{})
	s := NewService(n, "zk", opts)
	s.Start()
	t.Cleanup(s.Stop)
	return n, s
}

func endpoint(t *testing.T, n *netsim.Network, id netsim.NodeID) *transport.Endpoint {
	t.Helper()
	ep := transport.NewEndpoint(n, id)
	t.Cleanup(ep.Close)
	return ep
}

func TestRegisterAndLeaderSeniority(t *testing.T) {
	n, _ := service(t, Options{})
	a := endpoint(t, n, "a")
	b := endpoint(t, n, "b")
	sa, err := NewSession(a, "zk", "g", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := NewSession(b, "zk", "g", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	leader, err := Leader(clock.Root(a.Clock()), a, "zk", "g", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if leader != "a" {
		t.Fatalf("leader = %s, want the senior registrant a", leader)
	}
	members, err := Members(clock.Root(a.Clock()), a, "zk", "g", time.Second)
	if err != nil || len(members) != 2 {
		t.Fatalf("members = %v, %v", members, err)
	}
}

func TestSessionExpiryPromotesNextSenior(t *testing.T) {
	n, svc := service(t, Options{SessionTTL: 40 * time.Millisecond, SweepInterval: 5 * time.Millisecond})
	a := endpoint(t, n, "a")
	b := endpoint(t, n, "b")
	sa, _ := NewSession(a, "zk", "g", 10*time.Millisecond)
	defer sa.Close()
	sb, _ := NewSession(b, "zk", "g", 10*time.Millisecond)
	defer sb.Close()

	// Cut a off from zk: its session must expire.
	n.SetSwitch(netsim.FilterFunc(func(src, dst netsim.NodeID) netsim.Verdict {
		if (src == "a" && dst == "zk") || (src == "zk" && dst == "a") {
			return netsim.VerdictDrop
		}
		return netsim.VerdictAccept
	}))
	deadline := time.Now().Add(2 * time.Second)
	for {
		leader, err := Leader(clock.Root(b.Clock()), b, "zk", "g", time.Second)
		if err == nil && leader == "b" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leadership never moved to b; live=%v", svc.LiveSessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLeaderOfEmptyGroup(t *testing.T) {
	n, _ := service(t, Options{})
	a := endpoint(t, n, "a")
	if _, err := Leader(clock.Root(a.Clock()), a, "zk", "nobody", time.Second); err == nil {
		t.Fatal("leader of empty group must error")
	}
}

func TestReRegisterKeepsSeniority(t *testing.T) {
	n, _ := service(t, Options{})
	a := endpoint(t, n, "a")
	b := endpoint(t, n, "b")
	sa, _ := NewSession(a, "zk", "g", 10*time.Millisecond)
	defer sa.Close()
	sb, _ := NewSession(b, "zk", "g", 10*time.Millisecond)
	defer sb.Close()
	// a registers again (e.g. after a reconnect): must not lose rank.
	sa2, err := NewSession(a, "zk", "g", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sa2.Close()
	leader, _ := Leader(clock.Root(b.Clock()), b, "zk", "g", time.Second)
	if leader != "a" {
		t.Fatalf("leader = %s, want a (seniority preserved)", leader)
	}
}

func TestUnregisterReleasesLeadership(t *testing.T) {
	n, _ := service(t, Options{})
	a := endpoint(t, n, "a")
	b := endpoint(t, n, "b")
	sa, _ := NewSession(a, "zk", "g", 10*time.Millisecond)
	sb, _ := NewSession(b, "zk", "g", 10*time.Millisecond)
	defer sb.Close()
	sa.Close()
	if _, err := a.Call("zk", mUnreg, registerMsg{Session: "a", Group: "g"}, time.Second); err != nil {
		t.Fatal(err)
	}
	leader, err := Leader(clock.Root(b.Clock()), b, "zk", "g", time.Second)
	if err != nil || leader != "b" {
		t.Fatalf("leader = %s, %v; want b", leader, err)
	}
}

func TestPutGet(t *testing.T) {
	n, _ := service(t, Options{})
	a := endpoint(t, n, "a")
	if err := Put(clock.Root(a.Clock()), a, "zk", "/config/x", "42", time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := Get(clock.Root(a.Clock()), a, "zk", "/config/x", time.Second)
	if err != nil || got != "42" {
		t.Fatalf("get = %q, %v", got, err)
	}
	if _, err := Get(clock.Root(a.Clock()), a, "zk", "/missing", time.Second); err == nil {
		t.Fatal("missing path must error")
	}
}

func TestPingKeepsSessionAlive(t *testing.T) {
	_, svc := service(t, Options{SessionTTL: 50 * time.Millisecond, SweepInterval: 5 * time.Millisecond})
	a := endpoint(t, svcNet(svc), "a")
	sa, err := NewSession(a, "zk", "g", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	time.Sleep(150 * time.Millisecond) // several TTLs
	if live := svc.LiveSessions(); len(live) != 1 || live[0] != "a" {
		t.Fatalf("live sessions = %v, want [a]", live)
	}
}

// svcNet extracts the fabric a service endpoint is attached to.
func svcNet(s *Service) *netsim.Network { return s.ep.Network() }

// TestReestablishingSessionSurvivesExpiry: an outage longer than the
// TTL expires the session; the re-establishing keepalive's register
// beats bring it back (with fresh seniority) once the service is
// reachable again, while a plain ping keepalive stays dead forever.
func TestReestablishingSessionSurvivesExpiry(t *testing.T) {
	n, svc := service(t, Options{SessionTTL: 40 * time.Millisecond, SweepInterval: 5 * time.Millisecond})
	a := endpoint(t, n, "a")
	b := endpoint(t, n, "b")
	sa, err := NewReestablishingSession(a, "zk", "g", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := NewSession(b, "zk", "g", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()

	// Cut both off from zk until every session has expired.
	n.SetSwitch(netsim.FilterFunc(func(src, dst netsim.NodeID) netsim.Verdict {
		if dst == "zk" || src == "zk" {
			return netsim.VerdictDrop
		}
		return netsim.VerdictAccept
	}))
	deadline := time.Now().Add(2 * time.Second)
	for len(svc.LiveSessions()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions never expired; live=%v", svc.LiveSessions())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Heal. Only a (re-establishing) comes back; b's pings are ignored.
	n.SetSwitch(nil)
	deadline = time.Now().Add(2 * time.Second)
	for {
		if live := svc.LiveSessions(); len(live) == 1 && live[0] == "a" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live sessions = %v, want exactly [a] back", svc.LiveSessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
	leader, err := Leader(clock.Root(a.Clock()), a, "zk", "g", time.Second)
	if err != nil || leader != "a" {
		t.Fatalf("leader = %s, %v; want the re-established a", leader, err)
	}
}
