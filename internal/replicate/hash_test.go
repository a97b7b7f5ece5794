package replicate

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// refHash64 is the ring hash as it was first written: the standard
// library's FNV-1a over the key as a string, avalanched by mix64.
func refHash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// TestHash64MatchesReference pins ring placement: hashing bytes in place
// gives the value the string hash gave on a corpus of ring-point names,
// predict bodies that differ in one digit, and edge cases, so every key
// lands on the backend it landed on before.
func TestHash64MatchesReference(t *testing.T) {
	corpus := []string{"", "a", "\x00", "\xff\xfe", "http://127.0.0.1:8080#0"}
	for v := 0; v < 64; v++ {
		corpus = append(corpus, fmt.Sprintf("http://10.0.0.%d:9000#%d", v%7, v))
	}
	for seed := 0; seed < 200; seed++ {
		corpus = append(corpus, fmt.Sprintf(`{"app":"Spark-lr","seed":%d,"top":3}`, seed))
	}
	for _, key := range corpus {
		if got, want := hash64([]byte(key)), refHash64(key); got != want {
			t.Fatalf("hash64(%q) = %#x, reference %#x", key, got, want)
		}
	}
}

// TestHash64DoesNotAllocate: the predict path hashes every body, so the
// hash must read it in place.
func TestHash64DoesNotAllocate(t *testing.T) {
	body := []byte(`{"app":"Spark-lr","seed":7,"top":3}`)
	if allocs := testing.AllocsPerRun(100, func() { hash64(body) }); allocs != 0 {
		t.Fatalf("hash64 allocates %v times per call", allocs)
	}
}
