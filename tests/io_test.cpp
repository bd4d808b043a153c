// Unit tests for the I/O layer: .poly / .shots round trips, SVG output
// and the ASCII table printer.
#include <gtest/gtest.h>

#include <sstream>

#include "audit/independent_checker.h"
#include "io/poly_io.h"
#include "io/svg.h"
#include "io/table.h"

namespace mbf {
namespace {

TEST(PolyIoTest, SinglePolygonRoundTrip) {
  const Polygon p({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  std::stringstream ss;
  const Polygon polys[] = {p};
  writePolygons(ss, polys);
  std::vector<Polygon> back;
  ASSERT_TRUE(parsePolygons(ss, back).ok());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].vertices(), p.vertices());
}

TEST(PolyIoTest, MultiplePolygonsSeparatedByBlankLine) {
  const Polygon a({{0, 0}, {5, 0}, {5, 5}});
  const Polygon b({{10, 10}, {20, 10}, {20, 20}, {10, 20}});
  std::stringstream ss;
  const Polygon polys[] = {a, b};
  writePolygons(ss, polys);
  std::vector<Polygon> back;
  ASSERT_TRUE(parsePolygons(ss, back).ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].size(), 3u);
  EXPECT_EQ(back[1].size(), 4u);
}

TEST(PolyIoTest, CommentsAndNegativesParsed) {
  std::stringstream ss("# header\n-5 -3\n10 0 # trailing\n10 10\n");
  std::vector<Polygon> back;
  ASSERT_TRUE(parsePolygons(ss, back).ok());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0][0], Point(-5, -3));
}

TEST(PolyIoTest, DegenerateInputDropped) {
  std::stringstream ss("1 1\n2 2\n");  // only two vertices
  std::vector<Polygon> back;
  EXPECT_EQ(parsePolygons(ss, back).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(back.empty());
}

TEST(ShotsIoTest, RoundTrip) {
  std::vector<Solution> solutions(1);
  solutions[0].shots = {{0, 0, 10, 12}, {-5, 3, 7, 40}};
  std::vector<ShotSection> sections;
  ASSERT_TRUE(parseShotSections(formatBatchShots(solutions), sections).ok());
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].shots, solutions[0].shots);
}

TEST(SvgTest, ContainsExpectedElements) {
  SvgWriter svg({0, 0, 100, 100});
  svg.addPolygon(Polygon({{0, 0}, {50, 0}, {50, 50}}), "#eee", "#333");
  svg.addRect({10, 10, 30, 30}, "red", "none");
  svg.addCircle({20.0, 20.0}, 2.0, "blue");
  svg.addText({5.0, 95.0}, "hello");
  const std::string s = svg.str();
  EXPECT_NE(s.find("<svg"), std::string::npos);
  EXPECT_NE(s.find("<polygon"), std::string::npos);
  EXPECT_NE(s.find("<rect"), std::string::npos);
  EXPECT_NE(s.find("<circle"), std::string::npos);
  EXPECT_NE(s.find("hello"), std::string::npos);
  EXPECT_NE(s.find("</svg>"), std::string::npos);
}

TEST(SvgTest, TextIsXmlEscaped) {
  SvgWriter svg({0, 0, 100, 100});
  svg.addText({5.0, 95.0}, "a<b & \"c\" > 'd'");
  const std::string s = svg.str();
  EXPECT_NE(s.find("a&lt;b &amp; &quot;c&quot; &gt; &apos;d&apos;"),
            std::string::npos);
  // No raw entity characters between the text tags.
  const std::size_t open = s.find("<text");
  const std::size_t close = s.find("</text>");
  ASSERT_NE(open, std::string::npos);
  ASSERT_NE(close, std::string::npos);
  const std::string body = s.substr(s.find('>', open) + 1,
                                    close - s.find('>', open) - 1);
  EXPECT_EQ(body.find('<'), std::string::npos);
  EXPECT_EQ(body.find('"'), std::string::npos);
}

TEST(XmlEscapeTest, FiveEntities) {
  EXPECT_EQ(xmlEscape("&<>\"'"), "&amp;&lt;&gt;&quot;&apos;");
  EXPECT_EQ(xmlEscape("plain text 123"), "plain text 123");
  EXPECT_EQ(xmlEscape(""), "");
}

TEST(SvgTest, YAxisFlipped) {
  SvgWriter svg({0, 0, 100, 100}, 1.0);
  svg.addCircle({0.0, 0.0}, 1.0, "black");  // world bottom-left
  const std::string s = svg.str();
  // Bottom-left maps to SVG y = height = 100.
  EXPECT_NE(s.find("cy=\"100\""), std::string::npos);
}

TEST(TableTest, AlignsColumns) {
  Table t({"name", "count"});
  t.addRow({"alpha", "1"});
  t.addRow({"b", "12345"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| alpha |"), std::string::npos);
  EXPECT_NE(s.find("| 12345 |"), std::string::npos);
  EXPECT_NE(s.find("+-------+"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.addRow({"1", "2"});
  t.addSeparator();
  t.addRow({"3", "4"});
  EXPECT_EQ(t.csv(), "a,b\n1,2\n3,4\n");
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(std::int64_t{42}), "42");
  EXPECT_EQ(Table::fmt(0.5, 1), "0.5");
}

TEST(TableTest, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.addRow({"only"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

}  // namespace
}  // namespace mbf
