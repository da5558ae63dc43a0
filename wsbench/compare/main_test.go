package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Reference values from Python: statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.data)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestReportComparesTwoSets(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, dir := range dirs {
		vals := [][]string{{"1", "2", "3"}, {"10", "20", "30"}}[i]
		for seed, v := range vals {
			line := `{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":` + v + `,"unit":"s"}}}`
			name := filepath.Join(dir, "bulk-split__"+string(rune('a'+seed))+".json")
			if err := os.WriteFile(name, []byte("noise\n"+line+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var sets []set
	for _, d := range dirs {
		s, err := load(d)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, s)
	}
	var out strings.Builder
	report(&out, sets)
	got := out.String()
	for _, want := range []string{"bulk-split", "setup_s", "med            2", "med           20", "median +900.0%", "failed_share"} {
		if !strings.Contains(got, want) {
			t.Errorf("report lacks %q:\n%s", want, got)
		}
	}
}
