#pragma once
// MPEG-DASH Media Presentation Description (MPD) serialisation.
//
// A VideoManifest round-trips through the MPD XML subset that real DASH
// players consume: one Period, one video AdaptationSet with SegmentTemplate
// timing, and one Representation per ladder rung. This makes the simulator's
// stream descriptions interchangeable with externally authored manifests
// (within the supported subset) and gives the repository a protocol-level
// artifact rather than an internal-only struct.
//
// Supported subset:
//   MPD @mediaPresentationDuration (ISO-8601 "PT...S"), @type="static",
//   @profiles; BaseURL (zero or more, MPD-level, in priority order — the
//   multi-CDN origin list that multi-source playback maps to one
//   net::SegmentSource each); Period; AdaptationSet @contentType="video";
//   SegmentTemplate @duration/@timescale; Representation @id/@bandwidth
//   (bits per second) /@width/@height (optional).
// Our VBR size model rides in a private attribute (eacs:vbrAmplitude) so
// that round-trips are lossless; foreign MPDs without it parse as CBR.

#include <string>

#include "eacs/media/manifest.h"
#include "eacs/util/xml.h"

namespace eacs::media {

/// Serialises a manifest to MPD XML text.
std::string to_mpd_xml(const VideoManifest& manifest);

/// Builds the MPD element tree (for callers that post-process the XML).
eacs::XmlNode to_mpd_tree(const VideoManifest& manifest);

/// Parses MPD XML into a VideoManifest.
/// Throws std::runtime_error when the document is malformed or uses
/// features outside the supported subset.
VideoManifest from_mpd_xml(std::string_view xml_text);

/// Formats seconds as an ISO-8601 duration ("PT123.5S").
std::string iso8601_duration(double seconds);

/// Parses the ISO-8601 duration subset "PT[nH][nM][n.nS]".
/// Throws std::runtime_error on malformed input or a component outside the
/// range of a double.
double parse_iso8601_duration(std::string_view text);

}  // namespace eacs::media
