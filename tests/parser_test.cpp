// SPICE deck parser + writer round-trip tests.

#include "circuits/ota.h"
#include "circuits/vco.h"
#include "netlist/parser.h"
#include "netlist/writer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace catlift::netlist;

TEST(Parser, MinimalRc) {
    const char* deck =
        "rc lowpass\n"
        "V1 in 0 DC 5\n"
        "R1 in out 1k\n"
        "C1 out 0 1n\n"
        ".tran 10n 4u\n"
        ".end\n";
    Circuit c = parse_spice(deck);
    EXPECT_EQ(c.title, "rc lowpass");
    EXPECT_EQ(c.devices.size(), 3u);
    EXPECT_DOUBLE_EQ(c.device("R1").value, 1000.0);
    EXPECT_DOUBLE_EQ(c.device("C1").value, 1e-9);
    ASSERT_TRUE(c.tran.has_value());
    EXPECT_DOUBLE_EQ(c.tran->tstep, 1e-8);
    EXPECT_DOUBLE_EQ(c.tran->tstop, 4e-6);
}

TEST(Parser, CommentsAndContinuations) {
    const char* deck =
        "title\n"
        "* a comment card\n"
        "R1 a b\n"
        "+ 2k   ; in-line comment\n"
        "C1 a 0 1p $ another\n"
        ".end\n";
    Circuit c = parse_spice(deck);
    EXPECT_DOUBLE_EQ(c.device("R1").value, 2000.0);
    EXPECT_DOUBLE_EQ(c.device("C1").value, 1e-12);
}

TEST(Parser, PulseSource) {
    const char* deck =
        "t\n"
        "Vdd 1 0 PULSE(0 5 0 50n 50n 1 2)\n"
        ".end\n";
    Circuit c = parse_spice(deck);
    const auto& s = c.device("Vdd").source;
    EXPECT_EQ(s.kind, SourceSpec::Kind::Pulse);
    EXPECT_DOUBLE_EQ(s.v2, 5.0);
    EXPECT_DOUBLE_EQ(s.tr, 50e-9);
}

TEST(Parser, PwlAndSinSources) {
    const char* deck =
        "t\n"
        "V1 a 0 PWL(0 0 1u 5 2u 0)\n"
        "I1 b 0 SIN(0 1m 1meg)\n"
        ".end\n";
    Circuit c = parse_spice(deck);
    EXPECT_EQ(c.device("V1").source.pwl.size(), 3u);
    EXPECT_EQ(c.device("I1").source.kind, SourceSpec::Kind::Sin);
    EXPECT_DOUBLE_EQ(c.device("I1").source.va, 1e-3);
    EXPECT_DOUBLE_EQ(c.device("I1").source.freq, 1e6);
}

TEST(Parser, MosfetAndModel) {
    const char* deck =
        "inv\n"
        "M1 out in 0 0 nmos1 W=10u L=2u\n"
        "M2 out in vdd vdd pmos1 W=20u L=2u\n"
        ".model nmos1 NMOS (VTO=0.8 KP=50u LAMBDA=0.02)\n"
        ".model pmos1 PMOS (VTO=-0.8 KP=20u LAMBDA=0.02)\n"
        ".end\n";
    Circuit c = parse_spice(deck);
    const Device& m1 = c.device("M1");
    EXPECT_EQ(m1.kind, DeviceKind::Mosfet);
    EXPECT_DOUBLE_EQ(m1.w, 10e-6);
    EXPECT_DOUBLE_EQ(m1.l, 2e-6);
    EXPECT_TRUE(c.models.at("nmos1").is_nmos);
    EXPECT_FALSE(c.models.at("pmos1").is_nmos);
    EXPECT_DOUBLE_EQ(c.models.at("pmos1").vto, -0.8);
}

TEST(Parser, GroundAliases) {
    const char* deck =
        "t\n"
        "R1 a GND 1k\n"
        "R2 a gnd 2k\n"
        ".end\n";
    Circuit c = parse_spice(deck);
    EXPECT_EQ(c.device("R1").nodes[1], "0");
    EXPECT_EQ(c.device("R2").nodes[1], "0");
}

TEST(Parser, MissingModelIsError) {
    const char* deck =
        "t\n"
        "M1 d g s 0 nosuch W=1u L=1u\n"
        ".end\n";
    EXPECT_THROW(parse_spice(deck), catlift::Error);
}

TEST(Parser, ErrorsCarryLineNumbers) {
    const char* deck =
        "t\n"
        "R1 a b 1k\n"
        "Q1 c b e bjt\n"
        ".end\n";
    try {
        parse_spice(deck);
        FAIL() << "expected parse error";
    } catch (const catlift::Error& e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    }
}

TEST(Parser, BadCards) {
    EXPECT_THROW(parse_spice("t\nR1 a b\n.end\n"), catlift::Error);
    EXPECT_THROW(parse_spice("t\nC1 a 0 -1p\n.end\n"), catlift::Error);
    EXPECT_THROW(parse_spice("t\n.bogus\n.end\n"), catlift::Error);
    EXPECT_THROW(parse_spice("t\nV1 a 0 PWL(1u 5 0 0)\n.end\n"),
                 catlift::Error);
}

TEST(Parser, AcCard) {
    const char* deck =
        "t\n"
        "V1 in 0 DC 0 AC 1\n"
        "R1 in out 1k\n"
        "C1 out 0 1n\n"
        ".ac dec 20 1k 100meg\n"
        ".end\n";
    Circuit c = parse_spice(deck);
    ASSERT_TRUE(c.ac.has_value());
    EXPECT_EQ(c.ac->points_per_decade, 20);
    EXPECT_DOUBLE_EQ(c.ac->fstart, 1e3);
    EXPECT_DOUBLE_EQ(c.ac->fstop, 1e8);
    // Round-trips through the writer.
    Circuit back = parse_spice(write_spice(c));
    ASSERT_TRUE(back.ac.has_value());
    EXPECT_EQ(back.ac->points_per_decade, 20);
    EXPECT_THROW(parse_spice("t\n.ac lin 5 1 10\n.end\n"), catlift::Error);
    EXPECT_THROW(parse_spice("t\n.ac dec 5 10k 1k\n.end\n"),
                 catlift::Error);
    EXPECT_THROW(parse_spice("t\n.ac dec 1e30 1 10\n.end\n"),
                 catlift::Error);
}

TEST(Writer, RoundTripSemantics) {
    const char* deck =
        "vco deck\n"
        "Vdd 1 0 PULSE(0 5 0 50n 50n 1 2)\n"
        "Vc 2 0 DC 2.5\n"
        "M1 3 2 4 0 nm W=10u L=2u\n"
        "M2 4 4 0 0 nm W=10u L=2u\n"
        "C1 6 0 2p IC=0\n"
        "R1 5 6 100meg\n"
        "I1 7 0 DC 1u\n"
        ".model nm NMOS (VTO=0.8 KP=50u LAMBDA=0.02 TOX=20n)\n"
        ".tran 10n 4u\n"
        ".end\n";
    Circuit a = parse_spice(deck);
    const std::string text = write_spice(a);
    Circuit b = parse_spice(text);

    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
        const Device& da = a.devices[i];
        const Device& db = b.device(da.name);
        EXPECT_EQ(da.kind, db.kind) << da.name;
        EXPECT_EQ(da.nodes, db.nodes) << da.name;
        EXPECT_NEAR(da.value, db.value, 1e-18) << da.name;
        EXPECT_EQ(da.model, db.model) << da.name;
        EXPECT_NEAR(da.w, db.w, 1e-12);
        EXPECT_NEAR(da.l, db.l, 1e-12);
    }
    ASSERT_TRUE(b.tran.has_value());
    EXPECT_DOUBLE_EQ(b.tran->tstop, 4e-6);
    EXPECT_EQ(b.models.count("nm"), 1u);
    // Source waveforms survive.
    EXPECT_DOUBLE_EQ(b.device("Vdd").source.value_at(25e-9), 2.5);
}

TEST(Writer, DoubleRoundTripIsStable) {
    const char* deck =
        "t\n"
        "V1 a 0 SIN(0 1 1meg 0 0)\n"
        "R1 a b 4.7k\n"
        "C1 b 0 10p\n"
        ".tran 1n 1u\n"
        ".end\n";
    const std::string once = write_spice(parse_spice(deck));
    const std::string twice = write_spice(parse_spice(once));
    EXPECT_EQ(once, twice);
}

TEST(Parser, SeededDeckMutationsParseOrThrowTyped) {
    // Byte flips, deletions and inserted card fragments applied to real
    // decks: every input either parses or is rejected with a typed
    // catlift::Error -- no other exception, and (under the sanitizers) no
    // undefined behaviour, may escape the parser.
    const std::vector<std::string> decks = {
        write_spice(catlift::circuits::build_vco()),
        write_spice(catlift::circuits::build_ota())};
    // Card heads start a new line; an insertion joins one or two
    // fragments, so a head is often followed by a huge number.
    const std::vector<std::string> fragments = {
        "\n.ac dec ", "\n.tran ", "\n.model m nmos ", "\n.save v(",
        "\n.end\n",   "\n+ ",    "\n* ",            "\n",
        "pulse(",     "pwl(",     "sin(",            "W=",
        "(",          ")",        "=",               "-",
        " 0 ",        "meg",      "1e30",            "-1e30",
        "1e400",      "4294967296"};
    std::uint64_t state = 0x2545f4914f6cdd1dull;
    const auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    int parsed = 0, rejected = 0;
    for (int i = 0; i < 3000; ++i) {
        std::string deck = decks[static_cast<std::size_t>(i) % decks.size()];
        for (std::uint64_t e = 0, edits = 1 + next() % 4; e < edits; ++e) {
            const std::size_t pos = next() % (deck.size() + 1);
            switch (next() % 3) {
                case 0:
                    if (pos < deck.size())
                        deck[pos] = static_cast<char>(
                            deck[pos] ^ static_cast<char>(1 + next() % 255));
                    break;
                case 1:
                    deck.erase(pos, 1 + next() % 16);
                    break;
                default: {
                    std::string frag = fragments[next() % fragments.size()];
                    if (next() % 2)
                        frag += fragments[next() % fragments.size()];
                    deck.insert(pos, frag);
                    break;
                }
            }
        }
        try {
            parse_spice(deck);
            ++parsed;
        } catch (const catlift::Error&) {
            ++rejected;
        } catch (const std::exception& ex) {
            ADD_FAILURE() << "case " << i << " escaped with " << ex.what()
                          << "\n" << deck;
        }
    }
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
}
