package governance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// AuditEntry is one immutable audit record. Hash covers the entry's fields
// and the previous entry's hash, making the log tamper-evident: mutating or
// removing any historical entry breaks every subsequent hash.
type AuditEntry struct {
	Seq      int64
	At       time.Time
	User     string
	Action   string
	Object   string
	Detail   string
	Allowed  bool
	PrevHash string
	Hash     string
}

// AuditLog is an append-only, hash-chained log.
//
// Every statement appends an entry, so entries are stored compactly: the
// sequence number and previous hash are implied by the position, the hash
// is kept as raw bytes, and user, action and object names (a small
// vocabulary) are interned. Entries are rebuilt when read.
type AuditLog struct {
	mu      sync.RWMutex
	entries []auditRec
	names   []string         // interned user, action and object names
	nameIdx map[string]int32 // name -> index in names
	last    string           // the newest entry's Hash
	sink    func(AuditEntry)
}

// auditRec is the stored form of an AuditEntry.
type auditRec struct {
	at                   time.Time
	detail               string
	user, action, object int32
	allowed              bool
	hash                 [sha256.Size]byte
}

// NewAuditLog returns an empty log.
func NewAuditLog() *AuditLog { return &AuditLog{nameIdx: map[string]int32{}} }

func hashEntry(e *AuditEntry) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%d|%s|%s|%s|%s|%t|%s",
		e.Seq, e.At.UnixNano(), e.User, e.Action, e.Object, e.Detail, e.Allowed, e.PrevHash)
	return hex.EncodeToString(h.Sum(nil))
}

// intern returns the index of name in l.names, adding it if new.
func (l *AuditLog) intern(name string) int32 {
	if i, ok := l.nameIdx[name]; ok {
		return i
	}
	i := int32(len(l.names))
	l.names = append(l.names, name)
	l.nameIdx[name] = i
	return i
}

// store appends e, whose Hash must be the hex SHA-256 it was verified or
// computed to be.
func (l *AuditLog) store(e *AuditEntry) {
	r := auditRec{
		at: e.At, detail: e.Detail, allowed: e.Allowed,
		user: l.intern(e.User), action: l.intern(e.Action), object: l.intern(e.Object),
	}
	if _, err := hex.Decode(r.hash[:], []byte(e.Hash)); err != nil {
		panic("governance: audit hash is not hex: " + err.Error())
	}
	l.entries = append(l.entries, r)
	l.last = e.Hash
}

// entry rebuilds entry i.
func (l *AuditLog) entry(i int) AuditEntry {
	r := &l.entries[i]
	e := AuditEntry{
		Seq: int64(i + 1), At: r.at,
		User: l.names[r.user], Action: l.names[r.action], Object: l.names[r.object],
		Detail: r.detail, Allowed: r.allowed, Hash: hex.EncodeToString(r.hash[:]),
	}
	if i > 0 {
		e.PrevHash = hex.EncodeToString(l.entries[i-1].hash[:])
	}
	return e
}

// Record appends an entry and returns it.
func (l *AuditLog) Record(user, action, object, detail string, allowed bool) AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := AuditEntry{
		Seq: int64(len(l.entries) + 1), At: time.Now(),
		User: user, Action: action, Object: object, Detail: detail, Allowed: allowed,
		PrevHash: l.last,
	}
	e.Hash = hashEntry(&e)
	l.store(&e)
	if l.sink != nil {
		l.sink(e)
	}
	return e
}

// SetSink registers a function invoked (under the log lock, in append
// order) for every new entry — the durability layer's hook for persisting
// the chain as it grows.
func (l *AuditLog) SetSink(fn func(AuditEntry)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = fn
}

// Restore seeds an empty log with previously persisted entries after
// verifying the hash chain end to end — recovery must not resurrect a
// tampered log.
func (l *AuditLog) Restore(entries []AuditEntry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) != 0 {
		return fmt.Errorf("governance: Restore requires an empty audit log (%d entries present)", len(l.entries))
	}
	prev := ""
	for i := range entries {
		e := entries[i]
		if e.Seq != int64(i+1) {
			return fmt.Errorf("governance: restored audit entry %d has seq %d", i, e.Seq)
		}
		if e.PrevHash != prev || hashEntry(&e) != e.Hash {
			return fmt.Errorf("governance: restored audit chain broken at entry %d", i)
		}
		prev = e.Hash
	}
	for i := range entries {
		l.store(&entries[i])
	}
	return nil
}

// Entries returns a copy of the log.
func (l *AuditLog) Entries() []AuditEntry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]AuditEntry, len(l.entries))
	for i := range out {
		out[i] = l.entry(i)
	}
	return out
}

// Len returns the entry count.
func (l *AuditLog) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// Verify walks the chain and returns the index of the first corrupted
// entry, or -1 if the log is intact.
func (l *AuditLog) Verify() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	prev := ""
	for i := range l.entries {
		e := l.entry(i)
		if e.PrevHash != prev {
			return i
		}
		if hashEntry(&e) != e.Hash {
			return i
		}
		prev = e.Hash
	}
	return -1
}

// tamper mutates an entry in place; exported only to the package tests via
// the _test file. It exists so the tamper-evidence property can be tested
// without reflection.
func (l *AuditLog) tamper(i int, detail string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries[i].detail = detail
}
