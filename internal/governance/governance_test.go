package governance

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAccessDenyByDefault(t *testing.T) {
	a := NewAccessController()
	if err := a.Check("alice", ActSelect, TableObject("t")); err == nil {
		t.Error("unknown user should be denied")
	}
	a.AssignRole("alice", "analyst")
	if err := a.Check("alice", ActSelect, TableObject("t")); err == nil {
		t.Error("role without grants should be denied")
	}
}

func TestAccessGrantRevoke(t *testing.T) {
	a := NewAccessController()
	a.Grant("analyst", ActSelect, TableObject("orders"))
	a.AssignRole("alice", "analyst")
	if err := a.Check("alice", ActSelect, TableObject("orders")); err != nil {
		t.Errorf("granted access denied: %v", err)
	}
	if err := a.Check("alice", ActInsert, TableObject("orders")); err == nil {
		t.Error("ungranted action should be denied")
	}
	if err := a.Check("alice", ActSelect, TableObject("other")); err == nil {
		t.Error("ungranted object should be denied")
	}
	a.Revoke("analyst", ActSelect, TableObject("orders"))
	if err := a.Check("alice", ActSelect, TableObject("orders")); err == nil {
		t.Error("revoked access should be denied")
	}
}

func TestAccessWildcardAndModels(t *testing.T) {
	a := NewAccessController()
	a.Grant("admin", ActScore, AllObjects)
	a.AssignRole("root", "admin")
	if err := a.Check("root", ActScore, ModelObject("churn")); err != nil {
		t.Errorf("wildcard denied: %v", err)
	}
	a.Grant("scorer", ActScore, ModelObject("churn"))
	a.AssignRole("svc", "scorer")
	if err := a.Check("svc", ActScore, ModelObject("churn")); err != nil {
		t.Errorf("model grant denied: %v", err)
	}
	if err := a.Check("svc", ActScore, ModelObject("fraud")); err == nil {
		t.Error("other model should be denied")
	}
}

func TestRemoveRole(t *testing.T) {
	a := NewAccessController()
	a.Grant("analyst", ActSelect, AllObjects)
	a.AssignRole("bob", "analyst")
	if err := a.Check("bob", ActSelect, TableObject("t")); err != nil {
		t.Fatal(err)
	}
	a.RemoveRole("bob", "analyst")
	if err := a.Check("bob", ActSelect, TableObject("t")); err == nil {
		t.Error("removed role should deny")
	}
	if got := len(a.RolesOf("bob")); got != 0 {
		t.Errorf("roles = %d", got)
	}
}

func TestPermissionErrorMessage(t *testing.T) {
	a := NewAccessController()
	err := a.Check("eve", ActDelete, TableObject("payroll"))
	pe, ok := err.(*PermissionError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.User != "eve" || pe.Act != ActDelete {
		t.Errorf("error fields: %+v", pe)
	}
}

// Property: revoking never widens access — any (user, action, object)
// denied before a revoke stays denied after.
func TestRevokeMonotonicProperty(t *testing.T) {
	f := func(grantBits uint16) bool {
		a := NewAccessController()
		acts := []Action{ActSelect, ActInsert, ActScore, ActDeploy}
		objs := []Object{TableObject("t"), ModelObject("m"), AllObjects}
		// Grant a subset.
		bit := 0
		for _, act := range acts {
			for _, obj := range objs {
				if grantBits&(1<<bit) != 0 {
					a.Grant("r", act, obj)
				}
				bit++
			}
		}
		a.AssignRole("u", "r")
		deniedBefore := map[int]bool{}
		idx := 0
		for _, act := range acts {
			for _, obj := range objs {
				if obj != AllObjects && a.Check("u", act, obj) != nil {
					deniedBefore[idx] = true
				}
				idx++
			}
		}
		// Revoke something.
		a.Revoke("r", acts[int(grantBits)%len(acts)], objs[int(grantBits)%len(objs)])
		idx = 0
		for _, act := range acts {
			for _, obj := range objs {
				if obj != AllObjects && deniedBefore[idx] && a.Check("u", act, obj) == nil {
					return false
				}
				idx++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAuditChain(t *testing.T) {
	l := NewAuditLog()
	l.Record("alice", "select", "table:orders", "q1", true)
	l.Record("bob", "insert", "table:orders", "q2", true)
	l.Record("eve", "denied", "table:payroll", "q3", false)
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	if bad := l.Verify(); bad != -1 {
		t.Fatalf("fresh log verify failed at %d", bad)
	}
	entries := l.Entries()
	if entries[1].PrevHash != entries[0].Hash {
		t.Error("chain not linked")
	}
	if entries[0].Seq != 1 || entries[2].Seq != 3 {
		t.Error("sequence numbers wrong")
	}
}

func TestAuditTamperDetection(t *testing.T) {
	l := NewAuditLog()
	for i := 0; i < 10; i++ {
		l.Record("u", "a", "o", "detail", true)
	}
	l.tamper(4, "rewritten history")
	if bad := l.Verify(); bad != 4 {
		t.Errorf("tamper detected at %d, want 4", bad)
	}
}

// Property: the audit chain verifies if and only if untampered, for random
// entry counts and tamper positions.
func TestAuditChainProperty(t *testing.T) {
	f := func(n, pos uint8) bool {
		count := int(n)%20 + 2
		l := NewAuditLog()
		for i := 0; i < count; i++ {
			l.Record("u", "act", "obj", "d", i%2 == 0)
		}
		if l.Verify() != -1 {
			return false
		}
		p := int(pos) % count
		l.tamper(p, "x")
		return l.Verify() == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAuditEntriesRoundTrip pins the compact storage: Entries returns
// exactly what Record returned and the sink saw, and Restore of those
// entries reproduces them.
func TestAuditEntriesRoundTrip(t *testing.T) {
	l := NewAuditLog()
	var sunk []AuditEntry
	l.SetSink(func(e AuditEntry) { sunk = append(sunk, e) })
	var recorded []AuditEntry
	for i := 0; i < 50; i++ {
		user := []string{"alice", "bob", ""}[i%3]
		recorded = append(recorded, l.Record(user, []string{"select", "denied"}[i%2],
			fmt.Sprintf("table:t%d", i%4), fmt.Sprintf("detail %d", i), i%5 != 0))
	}
	got := l.Entries()
	if !reflect.DeepEqual(got, recorded) || !reflect.DeepEqual(sunk, recorded) {
		t.Fatal("Entries or the sink differ from what Record returned")
	}
	r := NewAuditLog()
	if err := r.Restore(got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Entries(), recorded) || r.Verify() != -1 {
		t.Fatal("restored log differs")
	}
	next := r.Record("carol", "select", "table:t0", "after restore", true)
	if next.Seq != 51 || next.PrevHash != recorded[49].Hash {
		t.Fatalf("entry after restore: seq %d, prev %q", next.Seq, next.PrevHash)
	}
}
