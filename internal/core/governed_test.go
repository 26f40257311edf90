package core

// One governed path, four shapes: text Exec, text cursor, prepared Exec and
// prepared cursor must leave the same governance footprint for the same
// statement — the audit, query-log and provenance records an operator
// relies on cannot depend on which API a client happened to call.

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/governance"
	"repro/internal/provenance"
)

// footprint is what one governed call left behind.
type footprint struct {
	audit []governance.AuditEntry
	log   []engine.LogEntry
	prov  []*provenance.Entity
}

func footprintSince(f *Flock, audit, log, prov int) footprint {
	return footprint{
		audit: f.Audit.Entries()[audit:],
		log:   f.DB.QueryLog()[log:],
		prov:  f.Catalog.EntitiesOfType(provenance.TypeQuery)[prov:],
	}
}

func TestGovernedShapesLeaveSameFootprint(t *testing.T) {
	ctx := context.Background()
	drain := func(cur engine.Cursor, err error) error {
		if err != nil {
			return err
		}
		_, err = engine.Collect(ctx, cur)
		return err
	}
	// Each shape runs query for user; preparer, when set, prepares the
	// statement as a different user first (the server's plan-cache sharing).
	shapes := []struct {
		name string
		run  func(f *Flock, preparer, user, query string) error
	}{
		{"exec", func(f *Flock, _, user, query string) error {
			_, err := f.ExecLevelContext(ctx, user, query, f.DB.DefaultLevel)
			return err
		}},
		{"cursor", func(f *Flock, _, user, query string) error {
			return drain(f.QueryLevel(ctx, user, query, f.DB.DefaultLevel))
		}},
		{"prepared-exec", func(f *Flock, preparer, user, query string) error {
			p, err := f.PrepareAs(preparer, query, f.DB.DefaultLevel)
			if err != nil {
				return err
			}
			_, err = f.ExecPrepared(ctx, user, p)
			return err
		}},
		{"prepared-cursor", func(f *Flock, preparer, user, query string) error {
			p, err := f.PrepareAs(preparer, query, f.DB.DefaultLevel)
			if err != nil {
				return err
			}
			return drain(f.QueryPrepared(ctx, user, p))
		}},
	}
	cases := []struct {
		name            string
		preparer, user  string
		query           string
		action          string
		audits, entries int // audit records; query-log and provenance entries
	}{
		{"allowed", "root", "root", `SELECT id, v FROM readings WHERE v > 40.0`, "select", 1, 1},
		{"denied", "mallory", "mallory", `SELECT id FROM readings`, "denied", 1, 0},
		{"denied-shared-plan", "root", "mallory", `SELECT id FROM readings`, "denied", 1, 0},
		{"parse-error", "root", "root", `SELEC id FROM readings`, "parse", 1, 0},
		{"two-statements", "root", "root", `SELECT 1; SELECT 2`, "parse", 1, 0},
	}
	for _, c := range cases {
		var first *governance.AuditEntry
		for _, sh := range shapes {
			if c.name == "two-statements" && sh.name == "exec" {
				continue // Exec runs every statement of a script
			}
			f := queryTestFlock(t)
			a, l, p := f.Audit.Len(), len(f.DB.QueryLog()), len(f.Catalog.EntitiesOfType(provenance.TypeQuery))
			err := sh.run(f, c.preparer, c.user, c.query)
			if (err == nil) != (c.action == "select") {
				t.Fatalf("%s/%s: err = %v", c.name, sh.name, err)
			}
			fp := footprintSince(f, a, l, p)
			if len(fp.audit) != c.audits || len(fp.log) != c.entries || len(fp.prov) != c.entries {
				t.Fatalf("%s/%s: %d audit, %d log, %d provenance entries; want %d, %d, %d",
					c.name, sh.name, len(fp.audit), len(fp.log), len(fp.prov), c.audits, c.entries, c.entries)
			}
			got := fp.audit[0]
			if got.Action != c.action || got.User != c.user || got.Allowed != (c.action == "select") {
				t.Fatalf("%s/%s: audit %+v, want action %q by %s", c.name, sh.name, got, c.action, c.user)
			}
			if first == nil {
				first = &got
			} else if got.Object != first.Object || got.Detail != first.Detail {
				t.Fatalf("%s/%s: audit object/text %q %q, exec shape recorded %q %q",
					c.name, sh.name, got.Object, got.Detail, first.Object, first.Detail)
			}
			if c.entries == 1 {
				if fp.log[0].Text != got.Detail || fp.log[0].User != c.user {
					t.Fatalf("%s/%s: query log %+v, audit text %q", c.name, sh.name, fp.log[0], got.Detail)
				}
				if text := fp.prov[0].Attrs.Get("text"); text != got.Detail {
					t.Fatalf("%s/%s: provenance text %q, audit text %q", c.name, sh.name, text, got.Detail)
				}
			}
		}
	}
}
