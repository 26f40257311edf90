package sql

import "testing"

// FuzzFormatRoundTrip pins the printer as the parser's inverse on every
// input the parser accepts: parse → format → parse → format is a fixed
// point. Canonical text is what the query log (and so the WAL, lazy
// provenance capture and replicas) stores and later re-parses, so a
// statement whose formatted text does not parse back — or parses to a
// different statement — would be replayed wrong.
//
//	go test -run FuzzFormatRoundTrip ./internal/sql/                 # seed corpus
//	go test -fuzz FuzzFormatRoundTrip -fuzztime 20s ./internal/sql/  # mutation
func FuzzFormatRoundTrip(f *testing.F) {
	for _, q := range roundTripQueries {
		f.Add(q)
	}
	for _, q := range []string{
		"SELECT id, PREDICT(churn, age, income, tenure, region, notes) AS s FROM customers WHERE id = 42",
		"SELECT region, count(*) AS n, avg(PREDICT(churn, age, income)) FROM customers WHERE income > 5e4 GROUP BY region ORDER BY n DESC",
		"INSERT INTO scores SELECT id, PREDICT(m, a) FROM t WHERE a BETWEEN -1.5 AND 2",
		"SELECT a FROM t AS x LEFT JOIN u ON x.a = u.a WHERE u.b IS NULL OR x.c NOT LIKE 'q%'; DELETE FROM t",
		"SELECT CASE a WHEN 1 THEN 'one' END, -(-a), NOT NOT b FROM t LIMIT 0",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmts, err := Parse(input)
		if err != nil {
			return
		}
		for _, s1 := range stmts {
			f1 := FormatStatement(s1)
			s2, err := ParseOne(f1)
			if err != nil {
				t.Fatalf("formatted text does not parse: %q -> %q: %v", input, f1, err)
			}
			if f2 := FormatStatement(s2); f2 != f1 {
				t.Fatalf("format is not a fixed point for %q:\n%s\n%s", input, f1, f2)
			}
		}
	})
}
