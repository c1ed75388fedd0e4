package codegen

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/plan"
	"repro/internal/rpe"
	"repro/internal/temporal"
	"time"
)

func testPlan(t *testing.T, src string) *plan.Plan {
	t.Helper()
	sch := netmodel.MustSchema()
	clock := temporal.NewManualClock(time.Date(2017, 2, 15, 0, 0, 0, 0, time.UTC))
	st := graph.NewStore(sch, clock, nil)
	if _, err := netmodel.BuildDemo(st, 1000); err != nil {
		t.Fatal(err)
	}
	c, err := rpe.CheckString(src, sch)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(c, st.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSQLGeneration(t *testing.T) {
	p := testPlan(t, "VNF()->[Vertical()]{1,6}->Host(id=1001)")
	sql := SQL(p, "2017-02-15 10:00:00")
	for _, want := range []string{
		"CREATE TEMP TABLE tmp_select",
		"Host__historical",
		"id_ = 1001",
		"sys_period @> '2017-02-15 10:00:00'::timestamptz",
		"NOT (H.id_ = ANY(T.uid_list))", // §5.2's cycle predicate
		"ExtendBlock {1,6}",
		"H.target_id_ = T.curr_uid", // backward extend from the anchor
		"uid_list",
		"concept_list",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
	// Snapshot query omits the temporal predicate.
	if strings.Contains(SQL(p, ""), "sys_period") {
		t.Error("snapshot SQL must not carry sys_period predicates")
	}
}

func TestSQLPredicateRendering(t *testing.T) {
	p := testPlan(t, "VM(status=~'Gr*', id IN (1, 2), flavor!='m1')->OnServer()->Host(id=1001)")
	sql := SQL(p, "")
	for _, want := range []string{
		"status_ LIKE 'Gr%'",
		"id_ IN (1, 2)",
		"flavor_ <> 'm1'",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestGremlinGeneration(t *testing.T) {
	p := testPlan(t, "VNF()->[Vertical()]{1,6}->Host(id=1001)")
	g := Gremlin(p)
	for _, want := range []string{
		"g.V()",
		"labelPrefix('Node:Host')",     // inheritance-path labels
		".has('id', 1001)",             // anchor predicate
		"labelPrefix('Edge:Vertical')", // prefix matching for subclasses
		"repeat(",
		".path()",
	} {
		if !strings.Contains(g, want) {
			t.Errorf("Gremlin missing %q:\n%s", want, g)
		}
	}
}

func TestGremlinEdgeAnchor(t *testing.T) {
	p := testPlan(t, "OnServer(id=1033)")
	g := Gremlin(p)
	if !strings.Contains(g, "g.E()") {
		t.Errorf("edge anchor must start at g.E():\n%s", g)
	}
}

func TestScriptGeneration(t *testing.T) {
	p := testPlan(t, "VNF()->[Vertical()]{1,6}->Host(id=1001)")
	s := Script(p, "postgres")
	for _, want := range []string{"channel()", "SELECT_anchor", "EXTEND_1", "collect("} {
		if !strings.Contains(s, want) {
			t.Errorf("script missing %q:\n%s", want, s)
		}
	}
}

func TestDDLGeneration(t *testing.T) {
	ddl := DDL(netmodel.MustSchema())
	for _, want := range []string{
		"CREATE TABLE Node (",
		"CREATE TABLE VM (", // concrete class
		"INHERITS (Container)",
		"CREATE TABLE VM__history () INHERITS (VM);",
		"CREATE VIEW VM__historical",
		"source_id_ BIGINT", // edges carry endpoints
		"nepal_uids",        // the uniqueness table
		"sys_period tstzrange",
	} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing %q", want)
		}
	}
}

func TestSQLStructuredPathPredicate(t *testing.T) {
	p := testPlan(t, "VirtualRouter(routingTable.address='10.0.0.0')->VirtualLink()->TenantNet(id=1009)")
	sql := SQL(p, "")
	if !strings.Contains(sql, `jsonb_path_exists(routingTable_, '$[*].address ? (@ == "10.0.0.0")')`) {
		t.Errorf("SQL missing jsonb path predicate:\n%s", sql)
	}
}
