package determinism

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestSortedKeysIsSortedAndComplete(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3, "": 4}
	got := SortedKeys(m)
	want := []string{"", "a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedKeys = %v, want %v", got, want)
	}
	if SortedKeys(map[int]int{}) != nil {
		t.Fatalf("SortedKeys of empty map should be nil")
	}
	var nilMap map[int]int
	if SortedKeys(nilMap) != nil {
		t.Fatalf("SortedKeys of nil map should be nil")
	}
}

func TestSortedKeysDeterministicAcrossInsertionOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := rng.Perm(200)
	a := make(map[int]string, len(keys))
	for _, k := range keys {
		a[k] = "x"
	}
	b := make(map[int]string, len(keys))
	for i := len(keys) - 1; i >= 0; i-- {
		b[keys[i]] = "x"
	}
	if !reflect.DeepEqual(SortedKeys(a), SortedKeys(b)) {
		t.Fatalf("key order depends on insertion order")
	}
}
