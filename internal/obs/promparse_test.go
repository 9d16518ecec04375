package obs

import (
	"math"
	"strings"
	"testing"
)

func TestParseExpositionGood(t *testing.T) {
	doc := `# HELP vc2m_runs_total Runs by state.
# TYPE vc2m_runs_total counter
vc2m_runs_total{state="succeeded"} 3
vc2m_runs_total{state="failed"} 0
# HELP vc2m_queue_depth Queue depth.
# TYPE vc2m_queue_depth gauge
vc2m_queue_depth 2 1712000000000
`
	fams, err := ValidateExposition(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if len(fams) != 2 {
		t.Fatalf("families = %d", len(fams))
	}
	if fams[0].Name != "vc2m_runs_total" || len(fams[0].Samples) != 2 {
		t.Fatalf("family 0 = %+v", fams[0])
	}
	if math.Float64bits(fams[1].Samples[0].Value) != math.Float64bits(2) {
		t.Fatalf("gauge value = %v", fams[1].Samples[0].Value)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": `vc2m_x_total 1
`,
		"duplicate TYPE": `# TYPE vc2m_x gauge
# TYPE vc2m_x gauge
vc2m_x 1
`,
		"TYPE after samples": `# HELP vc2m_x x
# TYPE vc2m_x gauge
vc2m_x 1
# TYPE vc2m_x counter
`,
		"unknown type": `# TYPE vc2m_x widget
vc2m_x 1
`,
		"ungrouped family": `# TYPE vc2m_a gauge
vc2m_a 1
# TYPE vc2m_b gauge
vc2m_b 1
vc2m_a 2
`,
		"bad escape": `# HELP vc2m_x x
# TYPE vc2m_x gauge
vc2m_x{l="a\qb"} 1
`,
		"unterminated label value": `# HELP vc2m_x x
# TYPE vc2m_x gauge
vc2m_x{l="a} 1
`,
		"bad value": `# HELP vc2m_x x
# TYPE vc2m_x gauge
vc2m_x hello
`,
		"invalid metric name": `# TYPE 9bad gauge
9bad 1
`,
		"reserved label name": `# HELP vc2m_x x
# TYPE vc2m_x gauge
vc2m_x{__meta="x"} 1
`,
	}
	for name, doc := range cases { //vc2m:ordered test-case map; order only affects error interleaving
		if _, err := ParseExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: parse accepted malformed document", name)
		}
	}
}

func TestValidateExpositionHistogramInvariants(t *testing.T) {
	head := `# HELP vc2m_h Latency.
# TYPE vc2m_h histogram
`
	good := head + `vc2m_h_bucket{le="0.1"} 1
vc2m_h_bucket{le="1"} 3
vc2m_h_bucket{le="+Inf"} 4
vc2m_h_sum 2.5
vc2m_h_count 4
`
	if _, err := ValidateExposition(strings.NewReader(good)); err != nil {
		t.Fatalf("good histogram rejected: %v", err)
	}
	cases := map[string]string{
		"non-cumulative buckets": head + `vc2m_h_bucket{le="0.1"} 5
vc2m_h_bucket{le="1"} 3
vc2m_h_bucket{le="+Inf"} 5
vc2m_h_sum 1
vc2m_h_count 5
`,
		"missing +Inf": head + `vc2m_h_bucket{le="1"} 3
vc2m_h_sum 1
vc2m_h_count 3
`,
		"+Inf != count": head + `vc2m_h_bucket{le="+Inf"} 4
vc2m_h_sum 1
vc2m_h_count 5
`,
		"missing sum": head + `vc2m_h_bucket{le="+Inf"} 4
vc2m_h_count 4
`,
		"non-increasing bounds": head + `vc2m_h_bucket{le="1"} 1
vc2m_h_bucket{le="0.5"} 2
vc2m_h_bucket{le="+Inf"} 2
vc2m_h_sum 1
vc2m_h_count 2
`,
	}
	for name, doc := range cases { //vc2m:ordered test-case map; order only affects error interleaving
		if _, err := ValidateExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: validation accepted bad histogram", name)
		}
	}
}

func TestValidateExpositionRequiresHelpAndType(t *testing.T) {
	noHelp := `# TYPE vc2m_x gauge
vc2m_x 1
`
	if _, err := ValidateExposition(strings.NewReader(noHelp)); err == nil {
		t.Fatal("family without HELP accepted")
	}
}
