"""World location catalogue: cities, countries, airport codes, coordinates.

The catalogue serves three purposes:

* it hosts the ground-truth locations of the services' data centers (§3.2),
* it provides the >100 countries from which open DNS resolvers and
  PlanetLab-like vantage points are instantiated (§2.1),
* it supplies the airport codes used by the reverse-DNS naming convention
  that the hybrid geolocation exploits.

Coordinates are approximate city centroids; the paper itself only needs
~100 km precision (§2.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["Location", "haversine_km", "find_location", "all_locations", "TESTBED_LOCATION"]


@dataclass(frozen=True)
class Location:
    """A named place on Earth."""

    city: str
    country: str
    airport_code: str
    latitude: float
    longitude: float

    def distance_km(self, other: "Location") -> float:
        """Great-circle distance to ``other`` in kilometres."""
        return haversine_km(self.latitude, self.longitude, other.latitude, other.longitude)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.city}, {self.country}"


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two coordinates, in kilometres."""
    radius = 6371.0
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlambda = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2) ** 2
    return 2 * radius * math.asin(math.sqrt(a))


# (city, country, airport code, latitude, longitude)
_RAW_LOCATIONS: List[Tuple[str, str, str, float, float]] = [
    # --- Testbed and paper-relevant data-center sites -------------------
    ("Enschede", "Netherlands", "ENS", 52.22, 6.89),
    ("San Jose", "United States", "SJC", 37.33, -121.89),
    ("Ashburn", "United States", "IAD", 39.04, -77.49),
    ("Boydton", "United States", "RIC", 36.67, -78.39),
    ("Seattle", "United States", "SEA", 47.61, -122.33),
    ("Boardman", "United States", "PDX", 45.84, -119.70),
    ("Dublin", "Ireland", "DUB", 53.35, -6.26),
    ("Nuremberg", "Germany", "NUE", 49.45, 11.08),
    ("Zurich", "Switzerland", "ZRH", 47.37, 8.54),
    ("Roubaix", "France", "LIL", 50.69, 3.17),
    ("Singapore", "Singapore", "SIN", 1.35, 103.82),
    # --- Europe ----------------------------------------------------------
    ("Amsterdam", "Netherlands", "AMS", 52.37, 4.90),
    ("London", "United Kingdom", "LHR", 51.51, -0.13),
    ("Paris", "France", "CDG", 48.86, 2.35),
    ("Frankfurt", "Germany", "FRA", 50.11, 8.68),
    ("Berlin", "Germany", "BER", 52.52, 13.41),
    ("Munich", "Germany", "MUC", 48.14, 11.58),
    ("Madrid", "Spain", "MAD", 40.42, -3.70),
    ("Barcelona", "Spain", "BCN", 41.39, 2.17),
    ("Lisbon", "Portugal", "LIS", 38.72, -9.14),
    ("Rome", "Italy", "FCO", 41.90, 12.50),
    ("Milan", "Italy", "MXP", 45.46, 9.19),
    ("Turin", "Italy", "TRN", 45.07, 7.69),
    ("Vienna", "Austria", "VIE", 48.21, 16.37),
    ("Brussels", "Belgium", "BRU", 50.85, 4.35),
    ("Luxembourg", "Luxembourg", "LUX", 49.61, 6.13),
    ("Geneva", "Switzerland", "GVA", 46.20, 6.14),
    ("Prague", "Czech Republic", "PRG", 50.08, 14.44),
    ("Warsaw", "Poland", "WAW", 52.23, 21.01),
    ("Budapest", "Hungary", "BUD", 47.50, 19.04),
    ("Bucharest", "Romania", "OTP", 44.43, 26.10),
    ("Sofia", "Bulgaria", "SOF", 42.70, 23.32),
    ("Athens", "Greece", "ATH", 37.98, 23.73),
    ("Belgrade", "Serbia", "BEG", 44.79, 20.45),
    ("Zagreb", "Croatia", "ZAG", 45.81, 15.98),
    ("Ljubljana", "Slovenia", "LJU", 46.06, 14.51),
    ("Bratislava", "Slovakia", "BTS", 48.15, 17.11),
    ("Copenhagen", "Denmark", "CPH", 55.68, 12.57),
    ("Stockholm", "Sweden", "ARN", 59.33, 18.07),
    ("Oslo", "Norway", "OSL", 59.91, 10.75),
    ("Helsinki", "Finland", "HEL", 60.17, 24.94),
    ("Reykjavik", "Iceland", "KEF", 64.15, -21.94),
    ("Tallinn", "Estonia", "TLL", 59.44, 24.75),
    ("Riga", "Latvia", "RIX", 56.95, 24.11),
    ("Vilnius", "Lithuania", "VNO", 54.69, 25.28),
    ("Kyiv", "Ukraine", "KBP", 50.45, 30.52),
    ("Minsk", "Belarus", "MSQ", 53.90, 27.57),
    ("Moscow", "Russia", "SVO", 55.76, 37.62),
    ("Saint Petersburg", "Russia", "LED", 59.93, 30.34),
    ("Istanbul", "Turkey", "IST", 41.01, 28.98),
    ("Ankara", "Turkey", "ESB", 39.93, 32.86),
    ("Dublin South", "Ireland", "ORK", 51.90, -8.47),
    ("Edinburgh", "United Kingdom", "EDI", 55.95, -3.19),
    ("Manchester", "United Kingdom", "MAN", 53.48, -2.24),
    ("Marseille", "France", "MRS", 43.30, 5.37),
    ("Porto", "Portugal", "OPO", 41.15, -8.61),
    ("Valletta", "Malta", "MLA", 35.90, 14.51),
    ("Nicosia", "Cyprus", "LCA", 35.17, 33.36),
    ("Sarajevo", "Bosnia and Herzegovina", "SJJ", 43.86, 18.41),
    ("Skopje", "North Macedonia", "SKP", 41.99, 21.43),
    ("Tirana", "Albania", "TIA", 41.33, 19.82),
    ("Chisinau", "Moldova", "KIV", 47.01, 28.86),
    # --- North America ---------------------------------------------------
    ("New York", "United States", "JFK", 40.71, -74.01),
    ("Newark", "United States", "EWR", 40.74, -74.17),
    ("Boston", "United States", "BOS", 42.36, -71.06),
    ("Chicago", "United States", "ORD", 41.88, -87.63),
    ("Dallas", "United States", "DFW", 32.78, -96.80),
    ("Houston", "United States", "IAH", 29.76, -95.37),
    ("Atlanta", "United States", "ATL", 33.75, -84.39),
    ("Miami", "United States", "MIA", 25.76, -80.19),
    ("Denver", "United States", "DEN", 39.74, -104.99),
    ("Phoenix", "United States", "PHX", 33.45, -112.07),
    ("Los Angeles", "United States", "LAX", 34.05, -118.24),
    ("San Francisco", "United States", "SFO", 37.77, -122.42),
    ("Palo Alto", "United States", "PAO", 37.44, -122.14),
    ("Portland", "United States", "PDX2", 45.52, -122.68),
    ("Salt Lake City", "United States", "SLC", 40.76, -111.89),
    ("Minneapolis", "United States", "MSP", 44.98, -93.27),
    ("Kansas City", "United States", "MCI", 39.10, -94.58),
    ("St. Louis", "United States", "STL", 38.63, -90.20),
    ("Washington", "United States", "DCA", 38.91, -77.04),
    ("Charlotte", "United States", "CLT", 35.23, -80.84),
    ("Toronto", "Canada", "YYZ", 43.65, -79.38),
    ("Montreal", "Canada", "YUL", 45.50, -73.57),
    ("Vancouver", "Canada", "YVR", 49.28, -123.12),
    ("Mexico City", "Mexico", "MEX", 19.43, -99.13),
    ("Guadalajara", "Mexico", "GDL", 20.67, -103.35),
    ("Panama City", "Panama", "PTY", 8.98, -79.52),
    ("San Jose CR", "Costa Rica", "SJO", 9.93, -84.08),
    ("Guatemala City", "Guatemala", "GUA", 14.63, -90.51),
    ("Havana", "Cuba", "HAV", 23.11, -82.37),
    ("Kingston", "Jamaica", "KIN", 18.02, -76.80),
    ("Santo Domingo", "Dominican Republic", "SDQ", 18.49, -69.93),
    ("San Juan", "Puerto Rico", "SJU", 18.47, -66.11),
    # --- South America ---------------------------------------------------
    ("Sao Paulo", "Brazil", "GRU", -23.55, -46.63),
    ("Rio de Janeiro", "Brazil", "GIG", -22.91, -43.17),
    ("Buenos Aires", "Argentina", "EZE", -34.60, -58.38),
    ("Santiago", "Chile", "SCL", -33.45, -70.67),
    ("Lima", "Peru", "LIM", -12.05, -77.04),
    ("Bogota", "Colombia", "BOG", 4.71, -74.07),
    ("Quito", "Ecuador", "UIO", -0.18, -78.47),
    ("Caracas", "Venezuela", "CCS", 10.49, -66.88),
    ("Montevideo", "Uruguay", "MVD", -34.90, -56.16),
    ("Asuncion", "Paraguay", "ASU", -25.26, -57.58),
    ("La Paz", "Bolivia", "LPB", -16.49, -68.15),
    # --- Asia ------------------------------------------------------------
    ("Tokyo", "Japan", "NRT", 35.68, 139.69),
    ("Osaka", "Japan", "KIX", 34.69, 135.50),
    ("Seoul", "South Korea", "ICN", 37.57, 126.98),
    ("Beijing", "China", "PEK", 39.90, 116.41),
    ("Shanghai", "China", "PVG", 31.23, 121.47),
    ("Hong Kong", "Hong Kong", "HKG", 22.32, 114.17),
    ("Taipei", "Taiwan", "TPE", 25.03, 121.57),
    ("Manila", "Philippines", "MNL", 14.60, 120.98),
    ("Bangkok", "Thailand", "BKK", 13.76, 100.50),
    ("Hanoi", "Vietnam", "HAN", 21.03, 105.85),
    ("Ho Chi Minh City", "Vietnam", "SGN", 10.82, 106.63),
    ("Kuala Lumpur", "Malaysia", "KUL", 3.14, 101.69),
    ("Jakarta", "Indonesia", "CGK", -6.21, 106.85),
    ("New Delhi", "India", "DEL", 28.61, 77.21),
    ("Mumbai", "India", "BOM", 19.08, 72.88),
    ("Chennai", "India", "MAA", 13.08, 80.27),
    ("Dhaka", "Bangladesh", "DAC", 23.81, 90.41),
    ("Karachi", "Pakistan", "KHI", 24.86, 67.01),
    ("Colombo", "Sri Lanka", "CMB", 6.93, 79.85),
    ("Kathmandu", "Nepal", "KTM", 27.72, 85.32),
    ("Almaty", "Kazakhstan", "ALA", 43.24, 76.89),
    ("Tashkent", "Uzbekistan", "TAS", 41.30, 69.24),
    ("Ulaanbaatar", "Mongolia", "ULN", 47.89, 106.91),
    ("Phnom Penh", "Cambodia", "PNH", 11.56, 104.92),
    ("Vientiane", "Laos", "VTE", 17.98, 102.63),
    ("Yangon", "Myanmar", "RGN", 16.87, 96.20),
    # --- Middle East -----------------------------------------------------
    ("Dubai", "United Arab Emirates", "DXB", 25.20, 55.27),
    ("Doha", "Qatar", "DOH", 25.29, 51.53),
    ("Riyadh", "Saudi Arabia", "RUH", 24.71, 46.68),
    ("Kuwait City", "Kuwait", "KWI", 29.38, 47.99),
    ("Manama", "Bahrain", "BAH", 26.23, 50.59),
    ("Muscat", "Oman", "MCT", 23.59, 58.38),
    ("Tel Aviv", "Israel", "TLV", 32.09, 34.78),
    ("Amman", "Jordan", "AMM", 31.96, 35.95),
    ("Beirut", "Lebanon", "BEY", 33.89, 35.50),
    ("Tehran", "Iran", "IKA", 35.69, 51.39),
    ("Baghdad", "Iraq", "BGW", 33.31, 44.37),
    ("Baku", "Azerbaijan", "GYD", 40.41, 49.87),
    ("Tbilisi", "Georgia", "TBS", 41.72, 44.83),
    ("Yerevan", "Armenia", "EVN", 40.18, 44.51),
    # --- Africa ----------------------------------------------------------
    ("Cairo", "Egypt", "CAI", 30.04, 31.24),
    ("Casablanca", "Morocco", "CMN", 33.57, -7.59),
    ("Tunis", "Tunisia", "TUN", 36.81, 10.18),
    ("Algiers", "Algeria", "ALG", 36.75, 3.06),
    ("Lagos", "Nigeria", "LOS", 6.52, 3.38),
    ("Accra", "Ghana", "ACC", 5.60, -0.19),
    ("Abidjan", "Ivory Coast", "ABJ", 5.36, -4.01),
    ("Dakar", "Senegal", "DKR", 14.72, -17.47),
    ("Nairobi", "Kenya", "NBO", -1.29, 36.82),
    ("Addis Ababa", "Ethiopia", "ADD", 9.03, 38.74),
    ("Kampala", "Uganda", "EBB", 0.35, 32.58),
    ("Dar es Salaam", "Tanzania", "DAR", -6.79, 39.21),
    ("Johannesburg", "South Africa", "JNB", -26.20, 28.05),
    ("Cape Town", "South Africa", "CPT", -33.92, 18.42),
    ("Luanda", "Angola", "LAD", -8.84, 13.23),
    ("Kinshasa", "DR Congo", "FIH", -4.44, 15.27),
    ("Maputo", "Mozambique", "MPM", -25.97, 32.57),
    ("Harare", "Zimbabwe", "HRE", -17.83, 31.05),
    ("Lusaka", "Zambia", "LUN", -15.39, 28.32),
    ("Antananarivo", "Madagascar", "TNR", -18.88, 47.51),
    ("Khartoum", "Sudan", "KRT", 15.50, 32.56),
    # --- Oceania ---------------------------------------------------------
    ("Sydney", "Australia", "SYD", -33.87, 151.21),
    ("Melbourne", "Australia", "MEL", -37.81, 144.96),
    ("Perth", "Australia", "PER", -31.95, 115.86),
    ("Brisbane", "Australia", "BNE", -27.47, 153.03),
    ("Auckland", "New Zealand", "AKL", -36.85, 174.76),
    ("Wellington", "New Zealand", "WLG", -41.29, 174.78),
    ("Suva", "Fiji", "SUV", -18.14, 178.44),
    ("Port Moresby", "Papua New Guinea", "POM", -9.44, 147.18),
]

_LOCATIONS: List[Location] = [
    Location(city=city, country=country, airport_code=code, latitude=lat, longitude=lon)
    for city, country, code, lat, lon in _RAW_LOCATIONS
]

_BY_CITY: Dict[str, Location] = {location.city.lower(): location for location in _LOCATIONS}
_BY_AIRPORT: Dict[str, Location] = {location.airport_code: location for location in _LOCATIONS}

#: The paper's vantage point: the testbed at the University of Twente.
TESTBED_LOCATION = _BY_CITY["enschede"]


def all_locations() -> List[Location]:
    """Return every location in the catalogue."""
    return list(_LOCATIONS)


def find_location(name: str) -> Optional[Location]:
    """Look a location up by city name or airport code (case-insensitive)."""
    by_city = _BY_CITY.get(name.lower())
    if by_city is not None:
        return by_city
    return _BY_AIRPORT.get(name.upper())
