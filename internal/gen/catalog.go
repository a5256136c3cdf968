package gen

import (
	"slices"
	"strings"

	"repro/internal/core"
)

// Dataset is one entry of the dataset catalog: the name every surface
// resolves through Lookup (serve's /datasets and /allocate, exp, adalloc,
// datagen, exprun), the aliases accepted beside it, the description
// /datasets serves, and the generator.
type Dataset struct {
	Name        string
	Aliases     []string
	Description string
	Build       func(Options) *core.Instance
}

// Catalog is every dataset, in /datasets order.
var Catalog = []Dataset{
	{Name: "flixster", Description: "FLIXSTER analogue: 30K-node power-law graph, 10 topical ads (quality setting)", Build: Flixster},
	{Name: "epinions", Description: "EPINIONS analogue: 76K-node power-law graph, exponential probabilities", Build: Epinions},
	{Name: "dblp", Description: "DBLP analogue: community co-authorship graph, weighted-cascade (scalability setting)", Build: DBLP},
	{Name: "livejournal", Aliases: []string{"lj"}, Description: "LIVEJOURNAL analogue: 4.8M-node community graph — mind the scale", Build: LiveJournal},
	{Name: "fig1", Description: "the paper's 6-node running example (ignores scale and ads)", Build: func(o Options) *core.Instance { return Fig1Instance(o.Lambda) }},
}

// Lookup resolves a dataset name or alias, ignoring case.
func Lookup(name string) (Dataset, bool) {
	name = strings.ToLower(name)
	for _, d := range Catalog {
		if d.Name == name || slices.Contains(d.Aliases, name) {
			return d, true
		}
	}
	return Dataset{}, false
}

// Names lists the catalog's dataset names in order (for flag help).
func Names() string {
	names := make([]string, len(Catalog))
	for i, d := range Catalog {
		names[i] = d.Name
	}
	return strings.Join(names, ",")
}
