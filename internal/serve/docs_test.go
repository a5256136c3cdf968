package serve

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// backticked matches one `name` token of a Markdown line.
var backticked = regexp.MustCompile("`([^`]+)`")

func readDoc(t *testing.T, name string) string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

// jsonTags collects the JSON field names a request body accepts,
// descending into embedded and nested structs (and slices of them).
func jsonTags(body any) map[string]bool {
	tags := map[string]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Slice || typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != "" && name != "-" {
				tags[name] = true
			}
			walk(f.Type)
		}
	}
	walk(reflect.TypeOf(body))
	return tags
}

// firstColumnNames returns the backticked names in the first cell of every
// table row of a Markdown fragment.
func firstColumnNames(md string) []string {
	var names []string
	for _, line := range strings.Split(md, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cell, _, _ := strings.Cut(line[1:], "|")
		for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// TestAPIDocMatchesRequestFields keeps docs/API.md and the request structs
// from naming different options: every JSON field a request body accepts
// is documented (backticked) somewhere in API.md, and every field the
// /allocate and /allocate/batch tables document is one the handler
// decodes — a deleted option cannot linger in the docs, a new one cannot
// ship undocumented.
func TestAPIDocMatchesRequestFields(t *testing.T) {
	doc := readDoc(t, "API.md")
	for _, body := range []any{AllocateRequest{}, AllocateItem{}, TIRMParams{}, AddAdRequest{}, SpendRequest{}, FeedbackRequest{}} {
		for tag := range jsonTags(body) {
			if !strings.Contains(doc, "`"+tag+"`") {
				t.Errorf("docs/API.md never names `%s`, a JSON field of %T", tag, body)
			}
		}
	}
	for heading, body := range map[string]any{
		"## POST /allocate":       AllocateRequest{},
		"## POST /allocate/batch": AllocateItem{},
	} {
		_, section, ok := strings.Cut(doc, "\n"+heading+"\n")
		if !ok {
			t.Fatalf("docs/API.md has no %q section", heading)
		}
		section, _, _ = strings.Cut(section, "\n## ")
		tags := jsonTags(body)
		for _, name := range firstColumnNames(section) {
			if !tags[name] {
				t.Errorf("docs/API.md %q documents field `%s`, which %T does not have", heading, name, body)
			}
		}
	}
}

// TestObservabilityDocMatchesMetrics keeps docs/OBSERVABILITY.md's metric
// catalog and the registered adserver families identical, both ways, over
// a fresh single-node server and a fresh coordinator (which adds the
// cluster families).
func TestObservabilityDocMatchesMetrics(t *testing.T) {
	documented := map[string]bool{}
	for _, name := range firstColumnNames(readDoc(t, "OBSERVABILITY.md")) {
		if strings.HasPrefix(name, "adserver_") {
			documented[name] = true
		}
	}
	registered := map[string]bool{}
	front, _ := shardedServer(t, InstanceParams{Dataset: "fig1", Seed: 1, Scale: 1}, 2)
	for _, url := range []string{testServer(t, Options{}).URL, front.URL} {
		for _, line := range strings.Split(scrapeMetrics(t, url), "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, _, _ := strings.Cut(rest, " ")
				registered[name] = true
			}
		}
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("docs/OBSERVABILITY.md has no row for registered family %s", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("docs/OBSERVABILITY.md documents %s, which no server registers", name)
		}
	}
}
