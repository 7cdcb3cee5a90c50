package depminer_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro"
)

// The canonical end-to-end flow: load a relation, discover its minimal
// FDs and the real-world Armstrong relation.
func Example() {
	r := depminer.PaperExample()
	res, err := depminer.Discover(context.Background(), r, depminer.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d minimal FDs, Armstrong relation of %d tuples\n",
		len(res.FDs), res.Armstrong.Rows())
	fmt.Println(res.FDs[0].Names(r.Names()))
	// Output:
	// 14 minimal FDs, Armstrong relation of 4 tuples
	// depnum,year → empnum
}

func ExampleLoadCSV() {
	data := "city,zip\nLyon,69001\nLyon,69002\nParis,75001\n"
	r, err := depminer.LoadCSV(strings.NewReader(data), true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d tuples over %d attributes\n", r.Rows(), r.Arity())
	// Output:
	// 3 tuples over 2 attributes
}

func ExampleDiscover() {
	r, _ := depminer.NewRelation(
		[]string{"zip", "city"},
		[][]string{
			{"69001", "Lyon"},
			{"69002", "Lyon"},
			{"75001", "Paris"},
			{"75001", "Paris"},
		},
	)
	res, err := depminer.Discover(context.Background(), r, depminer.Options{
		Armstrong: depminer.ArmstrongNone,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range res.FDs {
		fmt.Println(f.Names(r.Names()))
	}
	// Output:
	// zip → city
}

func ExampleDiscoverTANE() {
	r := depminer.PaperExample()
	res, err := depminer.DiscoverTANE(context.Background(), r, depminer.TANEOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d minimal FDs over %d lattice nodes\n", len(res.FDs), res.LatticeNodes)
	// Output:
	// 14 minimal FDs over 15 lattice nodes
}

func ExampleParseFD() {
	names := []string{"empnum", "depnum", "year"}
	f, err := depminer.ParseFD("depnum, year -> empnum", names)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(f.Names(names))
	// Output:
	// depnum,year → empnum
}

func ExampleVerify() {
	r := depminer.PaperExample()
	rule, _ := depminer.ParseFD("empnum -> depnum", r.Names())
	ok, bad := depminer.Verify(r, depminer.Cover{rule})
	fmt.Println(ok, bad.Names(r.Names()))
	// Output:
	// false empnum → depnum
}

func ExampleGenerate() {
	r, err := depminer.Generate(depminer.GenerateSpec{
		Attrs: 4, Rows: 1000, Correlation: 0.5, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d tuples, %d attributes, %d distinct values in column A\n",
		r.Rows(), r.Arity(), r.DomainSize(0))
	// Output:
	// 1000 tuples, 4 attributes, 431 distinct values in column A
}

func ExampleRealWorldArmstrong() {
	r := depminer.PaperExample()
	res, err := depminer.Discover(context.Background(), r, depminer.Options{
		Armstrong: depminer.ArmstrongNone,
	})
	if err != nil {
		log.Fatal(err)
	}
	arm, err := depminer.RealWorldArmstrong(r, res.MaxSets)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sampled %d of %d tuples\n", arm.Rows(), r.Rows())
	// Output:
	// sampled 4 of 7 tuples
}

func ExampleSynthesizeThreeNF() {
	names := []string{"order", "customer", "city"}
	cover := depminer.Cover{}
	for _, line := range []string{"order -> customer", "customer -> city"} {
		f, err := depminer.ParseFD(line, names)
		if err != nil {
			log.Fatal(err)
		}
		cover = append(cover, f)
	}
	dec := depminer.SynthesizeThreeNF(cover, len(names))
	for _, s := range dec.Schemas {
		fmt.Println(s.Names(names))
	}
	// Output:
	// (order, customer) key (order)
	// (customer, city) key (customer)
}

func ExampleNewIncrementalMiner() {
	m, err := depminer.NewIncrementalMiner([]string{"zip", "city"})
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range [][]string{
		{"69001", "Lyon"}, {"69001", "Lyon"}, {"75001", "Paris"},
	} {
		if err := m.Insert(row); err != nil {
			log.Fatal(err)
		}
	}
	res, err := m.Discover(context.Background(), depminer.Options{Armstrong: depminer.ArmstrongNone})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range res.FDs {
		fmt.Println(f.Names(m.Names()))
	}
	// Output:
	// city → zip
	// zip → city
}

func ExampleStreamCSV() {
	data := "a,b\n1,x\n2,x\n3,y\n"
	src, err := depminer.StreamCSV(strings.NewReader(data), true)
	if err != nil {
		log.Fatal(err)
	}
	res, err := depminer.Discover(context.Background(), src, depminer.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range res.FDs {
		fmt.Println(f.Names(src.Names()))
	}
	// Output:
	// a → b
}
