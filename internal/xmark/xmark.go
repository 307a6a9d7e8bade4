// Package xmark provides the benchmark substrate for the XML experiments: a
// seeded generator of auction-site documents structurally following the
// XMark DTD (Schmidt et al., VLDB 2002), the corresponding disjunctive
// multiplicity schema and classical DTD (the paper: "the disjunctive
// multiplicity schema can express the DTD from XMark"), and an
// XPathMark-style query catalog (Franceschet, XSym 2005) annotated with
// twig expressibility — the basis for the paper's "15% of XPathMark"
// observation.
//
// The original XMark generator is a C program emitting gigabytes of
// auction data; this package substitutes a deterministic Go generator that
// preserves the element structure, nesting, and multiplicity distributions
// the learning experiments depend on, at a size a test can generate.
package xmark

import (
	"fmt"
	"math/rand"

	"querylearn/internal/schema"
	"querylearn/internal/xmltree"
)

// Config parameterizes document generation.
type Config struct {
	Persons        int
	Items          int
	OpenAuctions   int
	ClosedAuctions int
	Categories     int
}

// ScaleConfig derives a Config from an XMark-like scale factor: scale 1
// corresponds to a small but representative document (~hundreds of nodes).
func ScaleConfig(scale int) Config {
	if scale < 1 {
		scale = 1
	}
	return Config{
		Persons:        8 * scale,
		Items:          10 * scale,
		OpenAuctions:   6 * scale,
		ClosedAuctions: 5 * scale,
		Categories:     3 * scale,
	}
}

var (
	firstNames = []string{"Ada", "Alan", "Grace", "Edsger", "Barbara", "Donald", "Leslie", "Tony"}
	lastNames  = []string{"Lovelace", "Turing", "Hopper", "Dijkstra", "Liskov", "Knuth", "Lamport", "Hoare"}
	cities     = []string{"Lille", "Paris", "NewYork", "Tokyo", "Sydney", "Nairobi"}
	countries  = []string{"France", "USA", "Japan", "Australia", "Kenya"}
	words      = []string{"vintage", "rare", "mint", "boxed", "signed", "limited", "classic", "original"}
	regions    = []string{"africa", "asia", "australia", "europe", "namerica", "samerica"}
)

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

// Generate produces a deterministic pseudo-random auction document for the
// given seed and configuration. The document is always valid w.r.t. both
// Schema() and DTD().
func Generate(seed int64, cfg Config) *xmltree.Node {
	rng := rand.New(rand.NewSource(seed))
	site := xmltree.New("site")

	regs := xmltree.New("regions")
	site.Add(regs)
	regionNodes := make([]*xmltree.Node, len(regions))
	for i, r := range regions {
		regionNodes[i] = xmltree.New(r)
		regs.Add(regionNodes[i])
	}
	for i := 0; i < cfg.Items; i++ {
		regionNodes[rng.Intn(len(regionNodes))].Add(genItem(rng, i, cfg))
	}

	cats := xmltree.New("categories")
	site.Add(cats)
	for i := 0; i < max(1, cfg.Categories); i++ {
		c := xmltree.New("category")
		c.Add(xmltree.NewText("name", pick(rng, words)+" category"))
		if rng.Intn(2) == 0 {
			c.Add(genDescription(rng))
		}
		cats.Add(c)
	}

	graph := xmltree.New("catgraph")
	site.Add(graph)
	for i := 0; i < cfg.Categories; i++ {
		graph.Add(xmltree.New("edge"))
	}

	people := xmltree.New("people")
	site.Add(people)
	for i := 0; i < cfg.Persons; i++ {
		people.Add(genPerson(rng, i))
	}

	open := xmltree.New("open_auctions")
	site.Add(open)
	for i := 0; i < cfg.OpenAuctions; i++ {
		open.Add(genOpenAuction(rng, cfg))
	}

	closed := xmltree.New("closed_auctions")
	site.Add(closed)
	for i := 0; i < cfg.ClosedAuctions; i++ {
		closed.Add(genClosedAuction(rng, cfg))
	}
	return site
}

func genItem(rng *rand.Rand, id int, cfg Config) *xmltree.Node {
	it := xmltree.New("item")
	it.Add(xmltree.NewText("location", pick(rng, cities)))
	it.Add(xmltree.NewText("quantity", fmt.Sprintf("%d", 1+rng.Intn(5))))
	it.Add(xmltree.NewText("name", fmt.Sprintf("%s item %d", pick(rng, words), id)))
	if rng.Intn(2) == 0 {
		it.Add(xmltree.NewText("payment", "creditcard"))
	}
	if rng.Intn(3) > 0 {
		it.Add(genDescription(rng))
	}
	n := 1 + rng.Intn(2)
	for i := 0; i < n; i++ {
		it.Add(xmltree.NewText("incategory", fmt.Sprintf("c%d", rng.Intn(max(1, cfg.Categories)))))
	}
	if rng.Intn(3) == 0 {
		mb := xmltree.New("mailbox")
		for i := 0; i < rng.Intn(3); i++ {
			m := xmltree.New("mail")
			m.Add(xmltree.NewText("from", pick(rng, firstNames)))
			m.Add(xmltree.NewText("to", pick(rng, firstNames)))
			m.Add(xmltree.NewText("date", "2013-06-23"))
			m.Add(genText(rng))
			mb.Add(m)
		}
		it.Add(mb)
	}
	return it
}

// genDescription follows XMark's disjunctive content model
// description -> (text | parlist): a flat text block or a nested list.
func genDescription(rng *rand.Rand) *xmltree.Node {
	d := xmltree.New("description")
	if rng.Intn(4) == 0 {
		d.Add(genParlist(rng, 2))
	} else {
		d.Add(genText(rng))
	}
	return d
}

// genParlist produces a parlist of listitems; each listitem again holds a
// text or (depth permitting) a nested parlist — XMark's recursive fragment.
func genParlist(rng *rand.Rand, depth int) *xmltree.Node {
	pl := xmltree.New("parlist")
	n := 1 + rng.Intn(2)
	for i := 0; i < n; i++ {
		li := xmltree.New("listitem")
		if depth > 0 && rng.Intn(3) == 0 {
			li.Add(genParlist(rng, depth-1))
		} else {
			li.Add(genText(rng))
		}
		pl.Add(li)
	}
	return pl
}

func genText(rng *rand.Rand) *xmltree.Node {
	t := xmltree.New("text")
	n := rng.Intn(3)
	for i := 0; i < n; i++ {
		t.Add(xmltree.NewText("keyword", pick(rng, words)))
	}
	if t.Text == "" && n == 0 {
		t.Text = pick(rng, words)
	}
	return t
}

func genPerson(rng *rand.Rand, id int) *xmltree.Node {
	p := xmltree.New("person")
	p.Add(xmltree.NewText("name", fmt.Sprintf("%s %s", pick(rng, firstNames), pick(rng, lastNames))))
	if rng.Intn(2) == 0 {
		p.Add(xmltree.NewText("emailaddress", fmt.Sprintf("p%d@example.org", id)))
	}
	if rng.Intn(2) == 0 {
		p.Add(xmltree.NewText("phone", fmt.Sprintf("+33-%07d", rng.Intn(10000000))))
	}
	if rng.Intn(2) == 0 {
		a := xmltree.New("address")
		a.Add(xmltree.NewText("street", fmt.Sprintf("%d Rue des Facultes", 1+rng.Intn(200))))
		a.Add(xmltree.NewText("city", pick(rng, cities)))
		a.Add(xmltree.NewText("country", pick(rng, countries)))
		if rng.Intn(2) == 0 {
			a.Add(xmltree.NewText("zipcode", fmt.Sprintf("%05d", rng.Intn(100000))))
		}
		p.Add(a)
	}
	if rng.Intn(3) == 0 {
		p.Add(xmltree.NewText("homepage", fmt.Sprintf("http://example.org/~p%d", id)))
	}
	if rng.Intn(3) == 0 {
		p.Add(xmltree.NewText("creditcard", "1234 5678"))
	}
	if rng.Intn(2) == 0 {
		pr := xmltree.New("profile")
		for i := 0; i < rng.Intn(3); i++ {
			pr.Add(xmltree.NewText("interest", pick(rng, words)))
		}
		if rng.Intn(2) == 0 {
			pr.Add(xmltree.NewText("education", "Graduate School"))
		}
		if rng.Intn(2) == 0 {
			pr.Add(xmltree.NewText("gender", "female"))
		}
		pr.Add(xmltree.NewText("business", "Yes"))
		if rng.Intn(2) == 0 {
			pr.Add(xmltree.NewText("age", fmt.Sprintf("%d", 18+rng.Intn(60))))
		}
		p.Add(pr)
	}
	if rng.Intn(3) == 0 {
		w := xmltree.New("watches")
		for i := 0; i < rng.Intn(3); i++ {
			w.Add(xmltree.New("watch"))
		}
		p.Add(w)
	}
	return p
}

func genOpenAuction(rng *rand.Rand, cfg Config) *xmltree.Node {
	a := xmltree.New("open_auction")
	a.Add(xmltree.NewText("initial", fmt.Sprintf("%d.00", 5+rng.Intn(100))))
	if rng.Intn(2) == 0 {
		a.Add(xmltree.NewText("reserve", fmt.Sprintf("%d.00", 50+rng.Intn(200))))
	}
	for i := 0; i < rng.Intn(4); i++ {
		b := xmltree.New("bidder")
		b.Add(xmltree.NewText("date", "2013-06-23"))
		b.Add(xmltree.NewText("time", "12:00:00"))
		b.Add(xmltree.NewText("personref", fmt.Sprintf("person%d", rng.Intn(max(1, cfg.Persons)))))
		b.Add(xmltree.NewText("increase", fmt.Sprintf("%d.00", 1+rng.Intn(20))))
		a.Add(b)
	}
	a.Add(xmltree.NewText("current", fmt.Sprintf("%d.00", 10+rng.Intn(300))))
	if rng.Intn(3) == 0 {
		a.Add(xmltree.NewText("privacy", "Yes"))
	}
	a.Add(xmltree.NewText("itemref", fmt.Sprintf("item%d", rng.Intn(max(1, cfg.Items)))))
	a.Add(xmltree.NewText("seller", fmt.Sprintf("person%d", rng.Intn(max(1, cfg.Persons)))))
	if rng.Intn(2) == 0 {
		a.Add(genAnnotation(rng))
	}
	a.Add(xmltree.NewText("quantity", "1"))
	a.Add(xmltree.NewText("type", "Regular"))
	a.Add(xmltree.NewText("interval", "7"))
	return a
}

func genAnnotation(rng *rand.Rand) *xmltree.Node {
	an := xmltree.New("annotation")
	an.Add(xmltree.NewText("author", pick(rng, firstNames)))
	if rng.Intn(4) > 0 {
		an.Add(genDescription(rng))
	}
	if rng.Intn(3) == 0 {
		an.Add(xmltree.NewText("happiness", fmt.Sprintf("%d", 1+rng.Intn(10))))
	}
	return an
}

func genClosedAuction(rng *rand.Rand, cfg Config) *xmltree.Node {
	a := xmltree.New("closed_auction")
	a.Add(xmltree.NewText("seller", fmt.Sprintf("person%d", rng.Intn(max(1, cfg.Persons)))))
	a.Add(xmltree.NewText("buyer", fmt.Sprintf("person%d", rng.Intn(max(1, cfg.Persons)))))
	a.Add(xmltree.NewText("itemref", fmt.Sprintf("item%d", rng.Intn(max(1, cfg.Items)))))
	a.Add(xmltree.NewText("price", fmt.Sprintf("%d.00", 20+rng.Intn(500))))
	a.Add(xmltree.NewText("date", "2013-06-23"))
	a.Add(xmltree.NewText("quantity", "1"))
	a.Add(xmltree.NewText("type", "Regular"))
	if rng.Intn(2) == 0 {
		a.Add(genAnnotation(rng))
	}
	return a
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Schema returns the disjunctive multiplicity schema of the generated
// documents — the DMS counterpart of the XMark DTD.
func Schema() *schema.Schema {
	s := schema.NewSchema("site")
	set := func(label string, d schema.Disjunct) { s.SetRule(label, schema.MustExpr(d)) }
	set("site", schema.Disjunct{
		"regions": schema.M1, "categories": schema.M1, "catgraph": schema.M1,
		"people": schema.M1, "open_auctions": schema.M1, "closed_auctions": schema.M1})
	regionsRule := schema.Disjunct{}
	for _, r := range regions {
		regionsRule[r] = schema.M1
		s.SetRule(r, schema.MustExpr(schema.Disjunct{"item": schema.MStar}))
	}
	set("regions", regionsRule)
	set("item", schema.Disjunct{
		"location": schema.M1, "quantity": schema.M1, "name": schema.M1,
		"payment": schema.MOpt, "description": schema.MOpt,
		"incategory": schema.MPlus, "mailbox": schema.MOpt})
	// The paper's point that DMS "can express the DTD from XMark" hinges
	// on disjunction: description -> (text | parlist).
	s.SetRule("description", schema.MustExpr(
		schema.Disjunct{"text": schema.M1},
		schema.Disjunct{"parlist": schema.M1}))
	s.SetRule("listitem", schema.MustExpr(
		schema.Disjunct{"text": schema.M1},
		schema.Disjunct{"parlist": schema.M1}))
	set("parlist", schema.Disjunct{"listitem": schema.MPlus})
	set("text", schema.Disjunct{"keyword": schema.MStar})
	set("mailbox", schema.Disjunct{"mail": schema.MStar})
	set("mail", schema.Disjunct{
		"from": schema.M1, "to": schema.M1, "date": schema.M1, "text": schema.M1})
	set("categories", schema.Disjunct{"category": schema.MPlus})
	set("category", schema.Disjunct{"name": schema.M1, "description": schema.MOpt})
	set("catgraph", schema.Disjunct{"edge": schema.MStar})
	set("people", schema.Disjunct{"person": schema.MStar})
	set("person", schema.Disjunct{
		"name": schema.M1, "emailaddress": schema.MOpt, "phone": schema.MOpt,
		"address": schema.MOpt, "homepage": schema.MOpt, "creditcard": schema.MOpt,
		"profile": schema.MOpt, "watches": schema.MOpt})
	set("address", schema.Disjunct{
		"street": schema.M1, "city": schema.M1, "country": schema.M1,
		"zipcode": schema.MOpt, "province": schema.MOpt})
	set("profile", schema.Disjunct{
		"interest": schema.MStar, "education": schema.MOpt, "gender": schema.MOpt,
		"business": schema.M1, "age": schema.MOpt})
	set("watches", schema.Disjunct{"watch": schema.MStar})
	set("open_auctions", schema.Disjunct{"open_auction": schema.MStar})
	set("open_auction", schema.Disjunct{
		"initial": schema.M1, "reserve": schema.MOpt, "bidder": schema.MStar,
		"current": schema.M1, "privacy": schema.MOpt, "itemref": schema.M1,
		"seller": schema.M1, "annotation": schema.MOpt, "quantity": schema.M1,
		"type": schema.M1, "interval": schema.M1})
	set("bidder", schema.Disjunct{
		"date": schema.M1, "time": schema.M1, "personref": schema.M1, "increase": schema.M1})
	set("annotation", schema.Disjunct{
		"author": schema.M1, "description": schema.MOpt, "happiness": schema.MOpt})
	set("closed_auctions", schema.Disjunct{"closed_auction": schema.MStar})
	set("closed_auction", schema.Disjunct{
		"seller": schema.M1, "buyer": schema.M1, "itemref": schema.M1,
		"price": schema.M1, "date": schema.M1, "quantity": schema.M1,
		"type": schema.M1, "annotation": schema.MOpt})
	return s
}

// DTD returns the ordered classical-DTD view of the same structure, used by
// the T4 containment baseline and by validation cross-checks.
func DTD() *schema.DTD {
	d := schema.NewDTD("site")
	r := func(label, re string) { d.Rules[label] = schema.MustParseRegex(re) }
	r("site", "(regions,categories,catgraph,people,open_auctions,closed_auctions)")
	r("regions", "(africa,asia,australia,europe,namerica,samerica)")
	for _, reg := range regions {
		r(reg, "item*")
	}
	r("item", "(location,quantity,name,payment?,description?,incategory+,mailbox?)")
	r("description", "(text|parlist)")
	r("parlist", "listitem+")
	r("listitem", "(text|parlist)")
	r("text", "keyword*")
	r("mailbox", "mail*")
	r("mail", "(from,to,date,text)")
	r("categories", "category+")
	r("category", "(name,description?)")
	r("catgraph", "edge*")
	r("people", "person*")
	r("person", "(name,emailaddress?,phone?,address?,homepage?,creditcard?,profile?,watches?)")
	r("address", "(street,city,country,zipcode?,province?)")
	r("profile", "(interest*,education?,gender?,business,age?)")
	r("watches", "watch*")
	r("open_auctions", "open_auction*")
	r("open_auction", "(initial,reserve?,bidder*,current,privacy?,itemref,seller,annotation?,quantity,type,interval)")
	r("bidder", "(date,time,personref,increase)")
	r("annotation", "(author,description?,happiness?)")
	r("closed_auctions", "closed_auction*")
	r("closed_auction", "(seller,buyer,itemref,price,date,quantity,type,annotation?)")
	return d
}
