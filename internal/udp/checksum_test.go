package udp

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ipv4"
	"repro/internal/netaddr"
)

// refPseudoChecksum is the RFC 1071 reference: the pseudo-header and the
// segment summed 16 bits at a time. pseudoChecksum must match it bit for
// bit, because chaos corruption detection and every recorded artifact
// depend on the exact checksum value.
func refPseudoChecksum(src, dst netaddr.IPv4, proto byte, segment []byte) uint16 {
	sum := uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(uint16(len(segment)))
	for i := 0; i+1 < len(segment); i += 2 {
		sum += uint32(segment[i])<<8 | uint32(segment[i+1])
	}
	if len(segment)%2 == 1 {
		sum += uint32(segment[len(segment)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// TestPseudoChecksumMatchesReference compares the word-wise sum with the
// 16-bit reference on random segments of every length 0–2000, odd lengths
// included, starting at every slice offset 0–7 of the backing array.
func TestPseudoChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 2000+8)
	for n := 0; n <= 2000; n++ {
		rng.Read(buf)
		var src, dst netaddr.IPv4
		rng.Read(src[:])
		rng.Read(dst[:])
		proto := byte(rng.Intn(256))
		for off := 0; off < 8; off++ {
			seg := buf[off : off+n]
			if got, want := pseudoChecksum(src, dst, proto, seg), refPseudoChecksum(src, dst, proto, seg); got != want {
				t.Fatalf("len %d offset %d: checksum %#04x, reference %#04x", n, off, got, want)
			}
		}
	}
}

// TestPseudoChecksumExtremes covers the sums the random test rarely
// reaches: all-zero and all-ones segments (carry-heavy folds) at lengths
// around the unrolled block size.
func TestPseudoChecksumExtremes(t *testing.T) {
	for _, fill := range []byte{0x00, 0xff} {
		for n := 0; n <= 70; n++ {
			seg := make([]byte, n)
			for i := range seg {
				seg[i] = fill
			}
			for _, ip := range []netaddr.IPv4{{}, {0xff, 0xff, 0xff, 0xff}} {
				got := pseudoChecksum(ip, ip, ipv4.ProtoUDP, seg)
				if want := refPseudoChecksum(ip, ip, ipv4.ProtoUDP, seg); got != want {
					t.Fatalf("fill %#02x len %d ip %v: checksum %#04x, reference %#04x", fill, n, ip, got, want)
				}
			}
		}
	}
}

// TestEverySingleBitFlipDetected flips each bit of marshalled datagrams of
// odd and even lengths. A flip that makes the length field overrun the
// buffer (or undercut the header) is ErrTruncated; every other flip,
// including one that shortens the claimed length, must fail the checksum.
func TestEverySingleBitFlipDetected(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 24, 31, 32, 33, 1000} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*37 + 11)
		}
		d := Datagram{SrcPort: 49152, DstPort: 7777, Payload: payload}
		b := d.Marshal(srcIP, dstIP)
		if _, err := Unmarshal(srcIP, dstIP, b); err != nil {
			t.Fatalf("len %d: clean datagram rejected: %v", n, err)
		}
		for bit := 0; bit < 8*len(b); bit++ {
			b[bit/8] ^= 1 << (bit % 8)
			want := ErrBadChecksum
			if l := int(uint16(b[4])<<8 | uint16(b[5])); l < HeaderLen || l > len(b) {
				want = ErrTruncated
			}
			if b[6] == 0 && b[7] == 0 {
				t.Fatalf("len %d bit %d: flip produced the zero \"no checksum\" field; pick another payload", n, bit)
			}
			if _, err := Unmarshal(srcIP, dstIP, b); !errors.Is(err, want) {
				t.Errorf("len %d bit %d: err = %v, want %v", n, bit, err, want)
			}
			b[bit/8] ^= 1 << (bit % 8)
		}
	}
}

// checksumSink keeps the benchmarked calls from being optimized away.
var checksumSink uint16

func BenchmarkPseudoChecksum(b *testing.B) {
	seg := make([]byte, HeaderLen+1000) // the packet workload's datagram
	for i := range seg {
		seg[i] = byte(i)
	}
	b.SetBytes(int64(len(seg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checksumSink = pseudoChecksum(srcIP, dstIP, ipv4.ProtoUDP, seg)
	}
}

func BenchmarkPseudoChecksumReference(b *testing.B) {
	seg := make([]byte, HeaderLen+1000)
	for i := range seg {
		seg[i] = byte(i)
	}
	b.SetBytes(int64(len(seg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checksumSink = refPseudoChecksum(srcIP, dstIP, ipv4.ProtoUDP, seg)
	}
}
