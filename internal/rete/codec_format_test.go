package rete_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
	"mpcrete/internal/workloads"
)

// bundledNetworks compiles every bundled program as every variant.
func bundledNetworks(t testing.TB, each func(name, variant string, net *rete.Network)) {
	t.Helper()
	for _, name := range workloads.NamedNames() {
		np, err := workloads.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ops5.ParseProgram(np.Program)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range rete.Variants() {
			net, err := rete.CompileVariant(prog.Productions, variant)
			if err != nil {
				t.Fatal(err)
			}
			each(name, variant, net)
		}
	}
}

// TestNetworkFormatPinned holds RETENET3 to its bytes: the length and
// SHA-256 of every bundled program's encoding as every variant, recorded
// from the bufio writer this codec replaced (PR 24's EncodeNetwork). A
// control and a worker agree on the format by protocol version alone,
// so a change here is a new magic and a new protoVersion, never an edit
// to this table.
func TestNetworkFormatPinned(t *testing.T) {
	want := map[string]string{
		"blocks/shared":         "1670 8c7bd521c800f2b92c09d203ea88d633fe685345105e9fa67242927edec40636",
		"blocks/unshared":       "1818 3e93542e271799069efab05b78734fd2e790f350861cfb9784efa571d4e1f215",
		"blocks/candc":          "1769 920d25d78413c61615b9144c971e61d59c89b3d9ec46bf78782965e714ae3a25",
		"blocks/bounded":        "1586 ef703d54d1ecc6935bf39a4635f6bc0430658fd05ff4bb2b4cd1bc44c528ae48",
		"chain/shared":          "459 428671ab1aa05febf676e3059ca21ac0567eb924431582b647eca43fd8a3fd91",
		"chain/unshared":        "459 efdb2bbcf05eaff1e9fd67337c7251c2e601b6887a2a565a567b6b9a46823034",
		"chain/candc":           "494 3407276d26a37cd3fdee2dc0d9e5e4e5b3128947b4d71d68df35deac9444b520",
		"chain/bounded":         "431 fc27c08be3ae54831cd57d14531b96be603742dc1cc918be6efb4ca733036bfd",
		"counter/shared":        "420 d24c663780210f07b841ddb6629241af063d98ea98ac3f11566c40c5643794d8",
		"counter/unshared":      "430 8bc0a8de8d5a7944b1d066bc48ce133a290e4c61b77bc99347fd6f54b61514cb",
		"counter/candc":         "468 f03a58ebef5e140d82e7f4bcb643b626508bae11720c99cb258c7e5c6c2e484b",
		"counter/bounded":       "428 78a4db04b23fc2b7422b6749a19be73dd15d205b036e5ec66f2d304924d816a1",
		"monkey/shared":         "2053 c71e70b83ca35f3c9c5dc8d65d971344e63ff1a12fe32b53e225dee78853cb73",
		"monkey/unshared":       "2411 6ef3695dfc2ffbd466dead53c3b8e85b244c4b3b94ce0c11d54390dde2a68768",
		"monkey/candc":          "2209 6d8c3ff6819c26d0cf113aa9f48797a024ebcf3faa6b30b019dd28bb5300998b",
		"monkey/bounded":        "2050 e95e425a8b723652cbc206958323864d32262d34d2fb7a2c0cb097fd5713174b",
		"queens/shared":         "3128 5426cabd349c98b399a6a387674861a59064873b4c5e62e6fcb3da0cfee99105",
		"queens/unshared":       "3414 afc48e435f1abda6318f40d4efcd56c1f83bc204512f1d091ba9d7411f895563",
		"queens/candc":          "3289 49803cdea03a4e2a3bbccc072ff82939e84d99ea77a838c350ea6960aa9c6f26",
		"queens/bounded":        "2911 85abf570c6b4de8be1956b85ec421f550a02562bd335fa9dbbe2b59164b8a185",
		"rubik-like/shared":     "1176 1e1396d50b30d5b926d0c621c0e490524dfcdcf79fd5033bdf06bea567b3e560",
		"rubik-like/unshared":   "1351 00fe622a42be03663c84c1c8d17541c4948a73deededd37a173b742c8beffce2",
		"rubik-like/candc":      "1217 1bf370618a67fd4a9ac0b4cec0498896212652017f89065e969488208ca284d1",
		"rubik-like/bounded":    "1182 1202206d1c713af3126395f5633f7103645b13faa56e2287e6004a2e7bb3ad24",
		"tourney-like/shared":   "681 174b1c604e5efa8dcb947022cc2ba14d597694655d59e93a7458f2e52011b333",
		"tourney-like/unshared": "713 e44dc2ac490ba464287cbe71922f277c4170e43cc21a885d64449a09cdba4af5",
		"tourney-like/candc":    "681 174b1c604e5efa8dcb947022cc2ba14d597694655d59e93a7458f2e52011b333",
		"tourney-like/bounded":  "652 cd54dcb1c2a1da2f1aacab63dc392771e8907a2039c303dc96630a2af15c368d",
	}
	bundledNetworks(t, func(name, variant string, net *rete.Network) {
		blob := rete.AppendNetwork(nil, net)
		key := name + "/" + variant
		if got := fmt.Sprintf("%d %x", len(blob), sha256.Sum256(blob)); got != want[key] {
			t.Errorf("%s encodes to %s, want %s", key, got, want[key])
		}
		delete(want, key)
	})
	for key := range want {
		t.Errorf("%s: pinned, but no longer bundled", key)
	}
}

// FuzzDecodeNetwork: no bytes make the decoder panic, and whatever it
// accepts it can say again — the decoded network's encoding decodes to
// a network with that same encoding.
func FuzzDecodeNetwork(f *testing.F) {
	bundledNetworks(f, func(_, _ string, net *rete.Network) { f.Add(rete.AppendNetwork(nil, net)) })
	f.Fuzz(func(t *testing.T, blob []byte) {
		net, err := rete.DecodeNetwork(blob)
		if err != nil {
			return
		}
		first := rete.AppendNetwork(nil, net)
		again, err := rete.DecodeNetwork(first)
		if err != nil {
			t.Fatalf("the encoding of a decoded network is refused: %v\n%q", err, first)
		}
		if second := rete.AppendNetwork(nil, again); !bytes.Equal(first, second) {
			t.Fatalf("no fixed point:\n%q\n%q", first, second)
		}
	})
}
