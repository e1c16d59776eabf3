package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"eul3d/internal/serve"
)

// metricFamilies returns the sorted "# HELP" and "# TYPE" lines of a
// daemon's /metrics page: the families it exposes, whatever their values.
func metricFamilies(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var heads []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "# HELP") || strings.HasPrefix(line, "# TYPE") {
			heads = append(heads, line)
		}
	}
	sort.Strings(heads)
	return strings.Join(heads, "\n") + "\n"
}

// TestMetricsExpositionStable pins the metric families of both daemons to
// golden lists captured from the commit before the /metrics handlers were
// rewritten over declared tables: the names, help strings and types are
// what smoke tests and dashboards grep for.
func TestMetricsExpositionStable(t *testing.T) {
	n := startNode(t, serve.Config{})
	c := New(fastCfg())
	defer c.Close()
	if err := c.AddNode("n1", n.srv.URL); err != nil {
		t.Fatal(err)
	}
	api := httptest.NewServer(NewAPI(c).Handler())
	defer api.Close()

	for golden, base := range map[string]string{
		"testdata/metrics_eul3dd.golden": n.srv.URL,
		"testdata/metrics_eul3dc.golden": api.URL,
	} {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := metricFamilies(t, base); got != string(want) {
			t.Errorf("%s: metric families changed\n--- got\n%s--- want\n%s", golden, got, want)
		}
	}
}
